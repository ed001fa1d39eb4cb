//! Algorithm 1: the MFIBlocks main loop.

use crate::config::MfiBlocksConfig;
use crate::neighborhood::ng_threshold;
use crate::score::block_score;
use std::collections::HashSet;
use std::time::Duration;
use yv_mfi::{mine_maximal, prune_common_items, prune_top_frequent};
use yv_obs::{MetricsRegistry, Recorder};
use yv_records::{Dataset, ItemId, RecordId};

/// A surviving block: the maximal frequent itemset acting as its implicit
/// key, its supporting records and its score.
#[derive(Debug, Clone)]
pub struct Block {
    pub items: Vec<ItemId>,
    pub records: Vec<RecordId>,
    pub score: f64,
    /// The minsup level at which the block was mined.
    pub minsup: u64,
}

impl Block {
    /// All unordered record pairs of the block.
    pub fn pairs(&self) -> impl Iterator<Item = (RecordId, RecordId)> + '_ {
        self.records.iter().enumerate().flat_map(move |(i, &a)| {
            self.records[i + 1..].iter().map(move |&b| if a < b { (a, b) } else { (b, a) })
        })
    }
}

/// Counters and timings for the performance study (Figure 12).
#[derive(Debug, Clone, Default)]
pub struct BlockingStats {
    pub iterations: u32,
    pub mfis_mined: usize,
    pub blocks_considered: usize,
    pub blocks_kept: usize,
    pub records_covered: usize,
    /// Time spent inside the FPMax miner (`mine_maximal`), summed over the
    /// minsup levels. The paper found mining to be its bottleneck (90% of
    /// runtime); here it is under half of blocking: 0.36 of 0.83 s on the
    /// 20k-record `archive-20k` perfbench base, on a 2-core x86-64 box.
    pub mining_time: Duration,
    pub total_time: Duration,
    /// Items removed by frequent-item pruning.
    pub items_pruned: usize,
}

/// The blocking outcome: soft (possibly overlapping) blocks and the
/// deduplicated candidate-pair set.
#[derive(Debug, Clone)]
pub struct BlockingResult {
    pub blocks: Vec<Block>,
    pub candidate_pairs: Vec<(RecordId, RecordId)>,
    pub stats: BlockingStats,
}

impl BlockingResult {
    /// Blocks containing a given record (soft clustering: may be several).
    #[must_use]
    pub fn blocks_of(&self, r: RecordId) -> Vec<&Block> {
        self.blocks.iter().filter(|b| b.records.contains(&r)).collect()
    }
}

/// Run MFIBlocks over a dataset.
///
/// Timings in [`BlockingStats`] come from an internal wall-clock
/// [`Recorder`]; use [`mfi_blocks_recorded`] to capture the full span
/// stream (per-iteration mining/scoring/filtering) as well.
#[must_use]
pub fn mfi_blocks(ds: &Dataset, config: &MfiBlocksConfig) -> BlockingResult {
    mfi_blocks_recorded(ds, config, &Recorder::monotonic())
}

/// Run MFIBlocks, recording the span taxonomy on `rec`:
///
/// ```text
/// blocking                     the whole run
/// ├── prune_items              frequent/common-item pruning before mining
/// └── iteration (minsup=k)     one pass of the minsup loop
///     ├── mine                 FP-Growth/FPMax maximal-itemset mining
///     ├── find_support         posting-list intersection + maximality/size pruning
///     ├── score_blocks         block scoring (parallel when configured)
///     └── ng_filter            sparse-neighborhood threshold + coverage update
/// ```
///
/// The clock is injected through the recorder, so this function never
/// reads the wall clock itself (the yv-audit S1 rule holds by
/// construction) and timing can never influence which blocks survive.
#[must_use]
pub fn mfi_blocks_recorded(
    ds: &Dataset,
    config: &MfiBlocksConfig,
    rec: &Recorder,
) -> BlockingResult {
    let blocking_span = rec.span("blocking");
    let n = ds.len();
    let mut stats = BlockingStats::default();
    let mut mining_ns = 0u64;

    // Item bags as raw u32s, optionally with ultra-frequent items pruned.
    let prune_span = rec.span("prune_items");
    let raw_bags: Vec<Vec<u32>> =
        ds.bags().iter().map(|bag| bag.iter().map(|id| id.0).collect()).collect();
    let mut mining_bags: Vec<Vec<u32>> = match config.prune_frequent {
        Some(fraction) => {
            let (pruned, removed) = prune_top_frequent(&raw_bags, fraction);
            stats.items_pruned = removed.len();
            pruned
        }
        None => raw_bags,
    };
    if let Some(fraction) = config.prune_common {
        let (pruned, removed) = prune_common_items(&mining_bags, fraction);
        stats.items_pruned += removed.len();
        mining_bags = pruned;
    }
    prune_span.finish();

    let mut covered = vec![false; n];
    let mut pairs: HashSet<(RecordId, RecordId)> = HashSet::new();
    let mut kept_blocks: Vec<Block> = Vec::new();

    let mut minsup = config.max_minsup.max(2);
    loop {
        let uncovered: Vec<usize> = (0..n).filter(|&i| !covered[i]).collect();
        if uncovered.is_empty() {
            break;
        }
        let iteration_span = rec.span_with("iteration", &[("minsup", minsup)]);
        // Mine MFIs from the uncovered records (line 6).
        let subset: Vec<Vec<u32>> =
            uncovered.iter().map(|&i| mining_bags[i].clone()).collect();
        let mine_span = rec.span_with("mine", &[("minsup", minsup)]);
        let mfis = mine_maximal(&subset, minsup);
        mining_ns += mine_span.finish();
        stats.mfis_mined += mfis.len();
        stats.iterations += 1;

        // FindSupport (line 7): inverted index over the uncovered subset.
        let support_span = rec.span_with("find_support", &[("minsup", minsup)]);
        let n_items = ds.interner().len();
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); n_items];
        for (local, &global) in uncovered.iter().enumerate() {
            for &item in &mining_bags[global] {
                postings[item as usize].push(local as u32);
            }
        }

        let size_cap = (minsup as f64 * config.p).floor() as usize;
        let mut candidates: Vec<(Vec<ItemId>, Vec<RecordId>)> = Vec::new();
        for mfi in &mfis {
            let Some(support) = intersect_postings(&postings, &mfi.items) else {
                continue;
            };
            // Filter blocks larger than minsup * p (line 8).
            if support.len() < 2 || support.len() > size_cap.max(2) {
                continue;
            }
            let records: Vec<RecordId> =
                support.iter().map(|&local| RecordId(uncovered[local as usize] as u32)).collect();
            let items: Vec<ItemId> = mfi.items.iter().map(|&i| ItemId(i)).collect();
            candidates.push((items, records));
        }
        stats.blocks_considered += candidates.len();
        support_span.finish();

        // Score blocks (parallel when configured).
        let score_span = rec.span_with("score_blocks", &[("minsup", minsup)]);
        let scores = score_blocks(ds, &candidates, config);
        let scored: Vec<(Vec<RecordId>, f64)> = candidates
            .iter()
            .zip(&scores)
            .map(|((_, records), &s)| (records.clone(), s))
            .collect();
        score_span.finish();

        // Sparse-neighborhood threshold (lines 9–14) and filtering
        // (lines 15–16).
        let filter_span = rec.span_with("ng_filter", &[("minsup", minsup)]);
        let min_th = ng_threshold(&scored, config.ng, minsup);
        for ((items, records), &score) in candidates.iter().zip(&scores) {
            if score <= min_th {
                continue;
            }
            // Surviving block: emit pairs and mark coverage (lines 17–19).
            // Membership is sorted before emission so cluster output is
            // canonical regardless of how support was materialized.
            let mut items = items.clone();
            items.sort_unstable();
            let mut records = records.clone();
            records.sort_unstable();
            let block = Block { items, records, score, minsup };
            for (a, b) in block.pairs() {
                pairs.insert((a, b));
                covered[a.index()] = true;
                covered[b.index()] = true;
            }
            kept_blocks.push(block);
        }
        filter_span.finish();
        iteration_span.finish();

        if minsup == 2 {
            break;
        }
        minsup -= 1;
    }

    stats.blocks_kept = kept_blocks.len();
    stats.records_covered = covered.iter().filter(|&&c| c).count();
    stats.mining_time = Duration::from_nanos(mining_ns);

    let mut candidate_pairs: Vec<(RecordId, RecordId)> = pairs.into_iter().collect();
    candidate_pairs.sort_unstable();

    rec.incr("mfis_mined", stats.mfis_mined as u64);
    rec.incr("blocks_considered", stats.blocks_considered as u64);
    rec.incr("blocks_kept", stats.blocks_kept as u64);
    rec.incr("candidate_pairs", candidate_pairs.len() as u64);
    rec.incr("items_pruned", stats.items_pruned as u64);
    stats.total_time = Duration::from_nanos(blocking_span.finish());

    BlockingResult { blocks: kept_blocks, candidate_pairs, stats }
}

/// Intersect sorted posting lists of an itemset, rarest item first.
/// Returns `None` when any item has no postings.
fn intersect_postings(postings: &[Vec<u32>], items: &[u32]) -> Option<Vec<u32>> {
    let mut lists: Vec<&Vec<u32>> = items.iter().map(|&i| &postings[i as usize]).collect();
    lists.sort_by_key(|l| l.len());
    if lists.first().is_some_and(|l| l.is_empty()) {
        return None;
    }
    let mut acc: Vec<u32> = lists[0].clone();
    for list in &lists[1..] {
        let mut out = Vec::with_capacity(acc.len().min(list.len()));
        let (mut i, mut j) = (0, 0);
        while i < acc.len() && j < list.len() {
            match acc[i].cmp(&list[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(acc[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        acc = out;
        if acc.is_empty() {
            return None;
        }
    }
    Some(acc)
}

/// [`mfi_blocks_recorded`], then publish the aggregated view into
/// `registry`: one `yv_blocking_stage_{span}_us` gauge per span name in
/// the taxonomy above, one `yv_blocking_{counter}` gauge per recorder
/// counter, and `yv_blocking_peak_alloc_bytes` — the high-water mark of
/// live bytes across this run (zero unless the counting allocator is
/// installed). The peak is reset on entry so the reading attributes to
/// this blocking pass, not the process lifetime.
#[must_use]
pub fn mfi_blocks_published(
    ds: &Dataset,
    config: &MfiBlocksConfig,
    rec: &Recorder,
    registry: &MetricsRegistry,
) -> BlockingResult {
    yv_obs::reset_peak();
    let result = mfi_blocks_recorded(ds, config, rec);
    registry.publish_recorder("yv_blocking", rec);
    registry.set_gauge(
        "yv_blocking_peak_alloc_bytes",
        "Peak live bytes during blocking (0 without the counting allocator)",
        yv_obs::alloc_stats().peak_bytes,
    );
    result
}

/// Score candidate blocks, chunked over `config.threads` workers (the
/// paper distributes this stage over a Spark pseudo-cluster; scoped threads
/// are our substitution).
fn score_blocks(
    ds: &Dataset,
    candidates: &[(Vec<ItemId>, Vec<RecordId>)],
    config: &MfiBlocksConfig,
) -> Vec<f64> {
    if config.threads <= 1 || candidates.len() < 64 {
        return candidates
            .iter()
            .map(|(_, records)| block_score(ds, records, &config.score))
            .collect();
    }
    let chunk = candidates.len().div_ceil(config.threads);
    let mut scores = vec![0.0; candidates.len()];
    // std scoped threads re-raise any worker panic on join — no Result to
    // unwrap, and a panicking worker cannot yield half-written scores.
    std::thread::scope(|scope| {
        for (slot, work) in scores.chunks_mut(chunk).zip(candidates.chunks(chunk)) {
            scope.spawn(move || {
                for (out, (_, records)) in slot.iter_mut().zip(work) {
                    *out = block_score(ds, records, &config.score);
                }
            });
        }
    });
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_datagen::GenConfig;

    fn generated() -> yv_datagen::Generated {
        GenConfig::random(600, 31).generate()
    }

    fn recall(gen: &yv_datagen::Generated, pairs: &[(RecordId, RecordId)]) -> f64 {
        let gold: HashSet<(RecordId, RecordId)> = gen.matching_pairs().into_iter().collect();
        if gold.is_empty() {
            return 1.0;
        }
        let hit = pairs.iter().filter(|p| gold.contains(p)).count();
        hit as f64 / gold.len() as f64
    }

    #[test]
    fn finds_most_duplicates() {
        let gen = generated();
        let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        let r = recall(&gen, &result.candidate_pairs);
        assert!(r > 0.5, "recall {r}");
        // And the candidate set is far smaller than the Cartesian product.
        let n = gen.dataset.len();
        assert!(result.candidate_pairs.len() < n * (n - 1) / 2 / 10);
    }

    #[test]
    fn higher_ng_never_reduces_pairs() {
        let gen = generated();
        let tight =
            mfi_blocks(&gen.dataset, &MfiBlocksConfig::default().with_ng(1.5));
        let loose =
            mfi_blocks(&gen.dataset, &MfiBlocksConfig::default().with_ng(5.0));
        assert!(loose.candidate_pairs.len() >= tight.candidate_pairs.len());
    }

    #[test]
    fn blocks_respect_size_cap() {
        let gen = generated();
        let config = MfiBlocksConfig::default();
        let result = mfi_blocks(&gen.dataset, &config);
        for block in &result.blocks {
            let cap = (block.minsup as f64 * config.p).floor() as usize;
            assert!(block.records.len() <= cap.max(2), "block of {}", block.records.len());
        }
    }

    #[test]
    fn soft_clustering_produces_overlap() {
        let gen = generated();
        let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default().with_ng(5.0));
        let mut membership = std::collections::HashMap::new();
        for b in &result.blocks {
            for &r in &b.records {
                *membership.entry(r).or_insert(0usize) += 1;
            }
        }
        assert!(
            membership.values().any(|&c| c > 1),
            "some record should sit in several blocks"
        );
    }

    #[test]
    fn deterministic() {
        let gen = generated();
        let a = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        let b = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        assert_eq!(a.candidate_pairs, b.candidate_pairs);
    }

    #[test]
    fn parallel_scoring_matches_sequential() {
        let gen = generated();
        let seq = mfi_blocks(&gen.dataset, &MfiBlocksConfig { threads: 1, ..MfiBlocksConfig::default() });
        let par = mfi_blocks(&gen.dataset, &MfiBlocksConfig { threads: 4, ..MfiBlocksConfig::default() });
        assert_eq!(seq.candidate_pairs, par.candidate_pairs);
    }

    #[test]
    fn pruning_reduces_mining_vocabulary() {
        let gen = generated();
        let with = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        let without = mfi_blocks(
            &gen.dataset,
            &MfiBlocksConfig {
                prune_frequent: None,
                prune_common: None,
                ..MfiBlocksConfig::default()
            },
        );
        assert!(with.stats.items_pruned > 0);
        assert_eq!(without.stats.items_pruned, 0);
    }

    #[test]
    fn stats_are_populated() {
        let gen = generated();
        let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        assert!(result.stats.iterations >= 1);
        assert!(result.stats.mfis_mined > 0);
        assert!(result.stats.blocks_kept > 0);
        assert!(result.stats.records_covered > 0);
        assert!(result.stats.total_time >= result.stats.mining_time);
    }

    #[test]
    fn published_run_exports_stage_gauges_and_counters() {
        let gen = generated();
        let (rec, _clock) = Recorder::manual();
        let registry = MetricsRegistry::new();
        let result =
            mfi_blocks_published(&gen.dataset, &MfiBlocksConfig::default(), &rec, &registry);
        assert!(!result.blocks.is_empty());
        let names: Vec<String> =
            registry.scalar_values().into_iter().map(|(n, _)| n).collect();
        for stage in ["blocking", "mine", "find_support", "score_blocks", "ng_filter"] {
            let metric = format!("yv_blocking_stage_{stage}_us");
            assert!(names.contains(&metric), "missing {metric} in {names:?}");
        }
        assert!(names.contains(&"yv_blocking_peak_alloc_bytes".to_owned()));
        assert!(registry.gauge("yv_blocking_mfis_mined", "").get() > 0);
    }

    #[test]
    fn recorded_trace_is_deterministic_and_carries_the_taxonomy() {
        let gen = generated();
        let run = || {
            let (rec, _clock) = Recorder::manual();
            let result = mfi_blocks_recorded(&gen.dataset, &MfiBlocksConfig::default(), &rec);
            (yv_obs::chrome_trace(&rec), result.candidate_pairs)
        };
        let (trace_a, pairs_a) = run();
        let (trace_b, pairs_b) = run();
        assert_eq!(trace_a, trace_b, "manual-clock traces must be byte-identical");
        assert_eq!(pairs_a, pairs_b);
        for name in
            ["blocking", "prune_items", "iteration", "mine", "find_support", "score_blocks", "ng_filter"]
        {
            assert!(trace_a.contains(&format!("\"name\":\"{name}\"")), "{name} span missing");
        }
        assert!(trace_a.contains("\"minsup\":5"), "iteration spans carry their minsup level");
        assert!(trace_a.contains("\"name\":\"candidate_pairs\""), "counters are exported");
    }

    #[test]
    fn pairs_are_normalized_and_unique() {
        let gen = generated();
        let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        let mut seen = HashSet::new();
        for &(a, b) in &result.candidate_pairs {
            assert!(a < b);
            assert!(seen.insert((a, b)));
        }
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new();
        let result = mfi_blocks(&ds, &MfiBlocksConfig::default());
        assert!(result.blocks.is_empty());
        assert!(result.candidate_pairs.is_empty());
    }
}
