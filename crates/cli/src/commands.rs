//! Subcommand implementations.

use crate::args::Args;
use crate::bench_compare::{self, CompareConfig};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use yv_blocking::{audit, mfi_blocks, mfi_blocks_recorded, MfiBlocksConfig};
use yv_core::{PersonProfile, PersonQuery, Pipeline, PipelineConfig};
use yv_datagen::{tag_pairs, GenConfig, Generated};
use yv_obs::{chrome_trace, timings_table, MetricsRegistry, Recorder};

type CliResult = Result<(), String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Emit the recorder's view of the run: a human table on `--timings`, a
/// Chrome-trace file on `--trace-json <path>` (open in `about:tracing` or
/// Perfetto). No-op without either flag.
fn emit_obs(args: &Args, rec: &Recorder) -> CliResult {
    if args.flag("timings") {
        print!("\n{}", timings_table(rec));
    }
    if let Some(path) = args.get("trace-json") {
        std::fs::write(path, chrome_trace(rec)).map_err(err)?;
        println!("wrote trace to {path}");
    }
    Ok(())
}

/// Build the dataset a command operates on.
fn dataset(args: &Args) -> Result<Generated, String> {
    let records: usize = args.parse_or("records", 2_000, "integer").map_err(err)?;
    let seed: u64 = args.parse_or("seed", 7, "integer").map_err(err)?;
    let config = if args.flag("italy") {
        GenConfig { n_records: records, ..GenConfig::italy(seed) }
    } else {
        GenConfig::random(records, seed)
    };
    Ok(config.generate())
}

fn blocking_config(args: &Args) -> Result<MfiBlocksConfig, String> {
    let ng: f64 = args.parse_or("ng", 3.0, "number").map_err(err)?;
    let max_minsup: u64 = args.parse_or("max-minsup", 5, "integer").map_err(err)?;
    Ok(MfiBlocksConfig::expert_weighting().with_ng(ng).with_max_minsup(max_minsup))
}

pub fn generate(args: &Args) -> CliResult {
    let gen = dataset(args)?;
    let stats = yv_records::PatternStats::analyze(&gen.dataset);
    println!("records:           {}", gen.dataset.len());
    println!("persons:           {}", gen.persons.len());
    println!("sources:           {}", gen.dataset.sources().len());
    println!("distinct items:    {}", gen.dataset.interner().len());
    println!("data patterns:     {}", stats.distinct_patterns());
    println!("gold match pairs:  {}", gen.gold_pair_count());
    println!("\nitem-type prevalence:");
    for p in yv_records::patterns::prevalence(&gen.dataset) {
        println!("  {:<18} {:>6.1}%", p.agg.label(), p.fraction * 100.0);
    }
    Ok(())
}

pub fn export(args: &Args) -> CliResult {
    let Some(path) = args.get("path") else {
        return Err("export requires --path <file.csv>".to_owned());
    };
    let gen = dataset(args)?;
    let truth: Vec<u64> =
        gen.dataset.record_ids().map(|rid| gen.person_of(rid).0).collect();
    let text = yv_records::csv::write_dataset(&gen.dataset, Some(&truth));
    std::fs::write(path, text).map_err(err)?;
    println!("wrote {} records to {path}", gen.dataset.len());
    Ok(())
}

/// Print the statistics of an externally supplied CSV dataset — the
/// adoption path for running the toolkit on real data.
pub fn import(args: &Args) -> CliResult {
    let Some(path) = args.get("path") else {
        return Err("import requires --path <file.csv>".to_owned());
    };
    let text = std::fs::read_to_string(path).map_err(err)?;
    let (ds, truth) = yv_records::csv::read_dataset(&text).map_err(err)?;
    println!("records:        {}", ds.len());
    println!("sources:        {}", ds.sources().len());
    println!("distinct items: {}", ds.interner().len());
    println!("ground truth:   {}", if truth.is_some() { "present" } else { "absent" });
    let result = mfi_blocks(&ds, &MfiBlocksConfig::expert_weighting());
    println!("MFIBlocks:      {} blocks, {} candidate pairs", result.blocks.len(),
        result.candidate_pairs.len());
    if let Some(truth) = truth {
        let mut by_person: std::collections::HashMap<u64, Vec<yv_records::RecordId>> =
            std::collections::HashMap::new();
        for rid in ds.record_ids() {
            by_person.entry(truth[rid.index()]).or_default().push(rid);
        }
        let gold: std::collections::HashSet<(yv_records::RecordId, yv_records::RecordId)> =
            by_person
                .values()
                .flat_map(|rs| {
                    rs.iter().enumerate().flat_map(move |(i, &a)| {
                        rs[i + 1..].iter().map(move |&b| if a < b { (a, b) } else { (b, a) })
                    })
                })
                .collect();
        let tp = result.candidate_pairs.iter().filter(|p| gold.contains(*p)).count();
        println!(
            "vs ground truth: recall {:.3}, precision {:.3}",
            tp as f64 / gold.len().max(1) as f64,
            tp as f64 / result.candidate_pairs.len().max(1) as f64
        );
    }
    Ok(())
}

pub fn block(args: &Args) -> CliResult {
    let gen = dataset(args)?;
    let config = blocking_config(args)?;
    let rec = Recorder::monotonic();
    let result = mfi_blocks_recorded(&gen.dataset, &config, &rec);
    let gold: std::collections::HashSet<_> = gen.matching_pairs().into_iter().collect();
    let tp = result.candidate_pairs.iter().filter(|p| gold.contains(*p)).count();
    println!("blocks:          {}", result.blocks.len());
    println!("candidate pairs: {}", result.candidate_pairs.len());
    println!("mining time:     {:?}", result.stats.mining_time);
    println!("iterations:      {}", result.stats.iterations);
    println!(
        "vs ground truth: recall {:.3}, precision {:.3}",
        tp as f64 / gold.len().max(1) as f64,
        tp as f64 / result.candidate_pairs.len().max(1) as f64
    );
    let diag = audit(&gen.dataset, &result, config.ng, 64);
    println!(
        "CS/SN audit:     compact {:.0}% of {} blocks (margin {:+.3}), \
         sparse {:.0}%, max neighbors {}",
        diag.compact_fraction * 100.0,
        diag.audited_blocks,
        diag.mean_compact_margin,
        diag.sparse_fraction * 100.0,
        diag.max_neighbors
    );
    emit_obs(args, &rec)
}

/// Train a pipeline on oracle-tagged blocking output.
fn trained(gen: &Generated, config: &PipelineConfig) -> Pipeline {
    let blocked = mfi_blocks(&gen.dataset, &config.blocking);
    let tags = tag_pairs(gen, &blocked.candidate_pairs, 1);
    let labelled: Vec<_> =
        tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
    Pipeline::train(&gen.dataset, &labelled, config)
}

/// Client mode of `yv resolve`: ask a running server to fuzzy-resolve a
/// (possibly misspelled) name into ranked person candidates.
fn resolve_remote(args: &Args) -> CliResult {
    let Some(name) = args.get("name") else {
        return Err("resolve --addr mode requires --name <query>".to_owned());
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let k = match args.get("k") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| "option --k: expects a positive integer".to_owned())?,
        ),
        None => None,
    };
    let min = match args.get("min") {
        Some(v) => {
            Some(v.parse::<f64>().map_err(|_| "option --min: expects a number".to_owned())?)
        }
        None => None,
    };
    let mut client = yv_store::Client::connect(addr).map_err(err)?;
    let hits = client.resolve(name, k, min).map_err(err)?;
    println!("{} candidate(s) for {name:?}", hits.len());
    for (rank, hit) in hits.iter().enumerate() {
        println!(
            "  #{:<2} score={:.4}  {:<16} entity of {} report(s)",
            rank + 1,
            hit.score,
            hit.name,
            hit.members.len()
        );
    }
    Ok(())
}

pub fn resolve(args: &Args) -> CliResult {
    if args.get("name").is_some() || args.get("addr").is_some() {
        return resolve_remote(args);
    }
    let gen = dataset(args)?;
    let certainty: f64 = args.parse_or("certainty", 0.0, "number").map_err(err)?;
    let config = PipelineConfig { blocking: blocking_config(args)?, ..PipelineConfig::default() };
    let pipeline = trained(&gen, &config);
    let rec = Recorder::monotonic();
    let resolution = pipeline.resolve_recorded(&gen.dataset, &config, &rec);
    let entities = resolution.entities(certainty);
    let merged: usize = entities.iter().map(Vec::len).sum();
    println!("scored matches:        {}", resolution.matches.len());
    println!("entities @ {certainty}: {} (covering {merged} records)", entities.len());
    let above: Vec<_> = resolution.at_certainty(certainty).collect();
    let correct = above.iter().filter(|m| gen.is_match(m.a, m.b)).count();
    println!(
        "match purity @ {certainty}: {:.1}% of {} matches",
        100.0 * correct as f64 / above.len().max(1) as f64,
        above.len()
    );
    emit_obs(args, &rec)
}

/// Read two bench JSON files and gate on the comparison: print the
/// per-metric report, fail (nonzero exit from `main`) when any metric
/// regresses past the configured threshold.
fn compare_files(baseline: &str, current: &str, config: &CompareConfig) -> CliResult {
    let old = bench_compare::parse_flat_json(&std::fs::read_to_string(baseline).map_err(err)?)
        .map_err(|e| format!("{baseline}: {e}"))?;
    let new = bench_compare::parse_flat_json(&std::fs::read_to_string(current).map_err(err)?)
        .map_err(|e| format!("{current}: {e}"))?;
    let report = bench_compare::compare(&old, &new, config)?;
    print!("{}", report.render());
    if report.regressions > 0 {
        return Err(format!("{} regression(s) vs baseline {baseline}", report.regressions));
    }
    Ok(())
}

/// Run the full pipeline under the recorder and write the stage timings
/// as machine-readable JSON (fixed field order, so diffs between runs and
/// commits stay meaningful). With `--compare OLD.json` the fresh run is
/// gated against a baseline; with `--compare OLD.json --against NEW.json`
/// no pipeline runs at all — the two files are compared as they stand.
pub fn bench(args: &Args) -> CliResult {
    let threshold: f64 = args.parse_or("threshold", 1.5, "number").map_err(err)?;
    let min_delta: u64 = args.parse_or("min-delta", 10_000, "integer").map_err(err)?;
    let gate = CompareConfig { threshold, min_delta };
    let baseline = args.get("compare").map(str::to_owned);
    if let Some(current) = args.get("against") {
        let Some(baseline) = baseline else {
            return Err("--against requires --compare BASELINE.json".to_owned());
        };
        return compare_files(&baseline, current, &gate);
    }

    let out = args.get("out").unwrap_or("BENCH_pipeline.json").to_owned();
    let records: usize = args.parse_or("records", 2_000, "integer").map_err(err)?;
    let seed: u64 = args.parse_or("seed", 7, "integer").map_err(err)?;
    let rec = Recorder::monotonic();
    let registry = MetricsRegistry::new();

    let total = rec.span("total");
    let preprocess = rec.span("preprocess");
    let gen = dataset(args)?;
    preprocess.finish();

    let config = PipelineConfig { blocking: blocking_config(args)?, ..PipelineConfig::default() };
    let train = rec.span("train");
    let pipeline = trained(&gen, &config);
    train.finish();

    let resolution = pipeline.resolve_published(&gen.dataset, &config, &rec, &registry);
    total.finish();
    let peak = registry.gauge("yv_pipeline_peak_alloc_bytes", "").get();

    // Every store the stages build lives under this run's own directory,
    // so concurrent `bench` runs never share (or delete) each other's
    // stores; dropping it removes them all.
    let scratch = ScratchDir::new("yv-bench")?;
    let root = scratch.path();
    let (add_single_us, add_multi_us) =
        bench_concurrent_adds(root, &gen, &pipeline, &config, &registry)?;
    let (resolve_summary, resolve_candidates) =
        bench_resolve(root, &gen, &pipeline, &config, &registry)?;
    let (trace_disabled_us, trace_enabled_us) =
        bench_trace_overhead(root, &gen, &pipeline, &config, &registry)?;
    let (serve_text_per_s, serve_binary_per_s) =
        bench_serve_protocols(root, &gen, &pipeline, &config, &registry)?;
    drop(scratch);

    const STAGES: &[&str] =
        &["preprocess", "train", "blocking", "extract", "score", "resolve", "total"];
    let mut json = String::from("{\n  \"schema\": \"yv-bench-pipeline/v2\",\n");
    json.push_str(&format!("  \"records\": {records},\n  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"sources\": {},\n", gen.dataset.sources().len()));
    json.push_str(&format!("  \"scored_matches\": {},\n", resolution.matches.len()));
    json.push_str(&format!("  \"peak_alloc_bytes\": {peak},\n"));
    json.push_str("  \"stages_us\": {\n");
    for (i, stage) in STAGES.iter().enumerate() {
        let comma = if i + 1 == STAGES.len() { "" } else { "," };
        json.push_str(&format!("    \"{stage}\": {}{comma}\n", rec.sum_ns(stage) / 1_000));
    }
    json.push_str("  },\n  \"counters\": {\n");
    let counters = rec.counters();
    for (i, (name, value)) in counters.iter().enumerate() {
        let comma = if i + 1 == counters.len() { "" } else { "," };
        json.push_str(&format!("    \"{name}\": {value}{comma}\n"));
    }
    json.push_str("  },\n  \"metrics\": {\n");
    let metrics = registry.scalar_values();
    for (i, (name, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        json.push_str(&format!("    \"{name}\": {value}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out, json).map_err(err)?;

    println!("resolved {records} records: {} scored matches", resolution.matches.len());
    for stage in STAGES {
        println!("  {:<12} {:>9} us", stage, rec.sum_ns(stage) / 1_000);
    }
    println!("peak alloc:   {peak} bytes");
    println!(
        "concurrent ADD (4 threads, {BENCH_ADD_ARRIVALS} arrivals): \
         1 shard {add_single_us} us, 4 shards {add_multi_us} us"
    );
    println!(
        "RESOLVE ({} queries): p50 {} us, p99 {} us, max {} us, \
         {resolve_candidates} candidates examined",
        resolve_summary.count, resolve_summary.p50_us, resolve_summary.p99_us,
        resolve_summary.max_us
    );
    println!(
        "trace capture overhead: QUERY p50 {trace_enabled_us} us traced \
         vs {trace_disabled_us} us untraced"
    );
    println!(
        "serve transports ({BENCH_SERVE_ARRIVALS} ADDs): text {serve_text_per_s} req/s, \
         binary BATCH_ADD x{BENCH_SERVE_BATCH} {serve_binary_per_s} req/s"
    );
    println!("wrote {out}");
    emit_obs(args, &rec)?;
    match baseline {
        Some(baseline) => compare_files(&baseline, &out, &gate),
        None => Ok(()),
    }
}

/// A fresh directory under the system temp dir, removed with everything
/// in it on drop. The name pairs the process id with a process-wide
/// counter, and creation refuses an existing path, so no two live
/// `ScratchDir`s ever share one.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(prefix: &str) -> Result<ScratchDir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(ScratchDir(dir)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(format!("cannot create {}: {e}", dir.display())),
            }
        }
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Writer threads in the concurrent-ADD bench stage, and the shard count
/// of its multi-shard store.
const BENCH_ADD_THREADS: usize = 4;
/// Arrivals each store absorbs in the concurrent-ADD bench stage.
const BENCH_ADD_ARRIVALS: usize = 120;

/// The store stage of `yv bench`: fill a 1-shard and a 4-shard store
/// with the same arrivals from 4 writer threads, timing each fill.
/// Single-shard writers serialize on one WAL (lock + fsync each);
/// multi-shard writers fsync distinct WALs concurrently — the published
/// `yv_store_concurrent_add_{single,multi}_us` gauges are the regression
/// guard on that advantage.
fn bench_concurrent_adds(
    root: &Path,
    gen: &Generated,
    pipeline: &Pipeline,
    config: &PipelineConfig,
    registry: &MetricsRegistry,
) -> Result<(u64, u64), String> {
    use yv_obs::Clock as _;
    let ds = &gen.dataset;
    // Arrivals are clones of corpus records under fresh book ids: real
    // name shapes, so shard routing spreads like production data.
    let n = u32::try_from(ds.len()).map_err(err)?;
    let arrivals: Vec<yv_records::Record> = (0..BENCH_ADD_ARRIVALS)
        .map(|i| {
            let mut r = ds.record(yv_records::RecordId(i as u32 % n)).clone();
            r.book_id = 900_000 + i as u64;
            r
        })
        .collect();
    let clone_ds = || clone_dataset(ds);
    let clock = yv_obs::MonotonicClock::new();
    let mut timings = [0u64; 2];
    for (slot, shards) in [(0usize, 1usize), (1, BENCH_ADD_THREADS)] {
        let dir = root.join(format!("{shards}-shard"));
        let resolver = yv_core::IncrementalResolver::bootstrap(
            clone_ds(),
            pipeline.clone(),
            config.clone(),
            yv_core::IncrementalConfig::default(),
        );
        let store = yv_store::Store::create(&dir, resolver, shards).map_err(err)?;
        let started = clock.now_nanos();
        std::thread::scope(|scope| {
            for t in 0..BENCH_ADD_THREADS {
                let store = &store;
                let arrivals = &arrivals;
                scope.spawn(move || {
                    for record in arrivals.iter().skip(t).step_by(BENCH_ADD_THREADS) {
                        // Failures surface through the count check below.
                        let _ = store.add_record(record.clone());
                    }
                });
            }
        });
        timings[slot] = clock.now_nanos().saturating_sub(started) / 1_000;
        if store.stats().wal_entries != BENCH_ADD_ARRIVALS {
            return Err("concurrent-ADD bench lost arrivals".to_owned());
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
    registry.set_gauge(
        "yv_store_concurrent_add_single_us",
        "4-thread ADD fill of a 1-shard store",
        timings[0],
    );
    registry.set_gauge(
        "yv_store_concurrent_add_multi_us",
        "4-thread ADD fill of a 4-shard store",
        timings[1],
    );
    Ok((timings[0], timings[1]))
}

/// Dataset is intentionally not Clone; rebuild it source-by-source so a
/// bench store starts from a resolver identical to the pipeline's.
fn clone_dataset(ds: &yv_records::Dataset) -> yv_records::Dataset {
    let mut out = yv_records::Dataset::new();
    for s in ds.sources() {
        out.add_source(s.clone());
    }
    for rid in ds.record_ids() {
        out.add_record(ds.record(rid).clone());
    }
    out
}

/// Rounds the resolve bench replays its probe battery for, so the
/// latency histogram has enough samples for stable percentiles.
const BENCH_RESOLVE_ROUNDS: usize = 3;

/// The RESOLVE stage of `yv bench`: build a 4-shard store over the bench
/// corpus and time fuzzy resolution of deterministically misspelled
/// corpus names. Publishes `yv_resolve_p50_us` / `yv_resolve_p99_us`
/// (ratio-gated latency) and `yv_resolve_candidates` (candidate names
/// examined — a pure function of the corpus, so the compare gate pins
/// the pruning behaviour exactly).
fn bench_resolve(
    root: &Path,
    gen: &Generated,
    pipeline: &Pipeline,
    config: &PipelineConfig,
    registry: &MetricsRegistry,
) -> Result<(yv_obs::LatencySummary, u64), String> {
    use yv_obs::Clock as _;
    let ds = &gen.dataset;
    // One probe per stride-th record: its first last name, lowercased,
    // with one deterministic edit (substitute or delete the middle
    // character, alternating) — the clerical-error shapes the fuzzy
    // index is built to absorb.
    let stride = (ds.len() / 16).max(1);
    let mut probes: Vec<String> = Vec::new();
    for i in (0..ds.len()).step_by(stride) {
        let record = ds.record(yv_records::RecordId(i as u32));
        let Some(last) = record.last_names.first() else { continue };
        let mut chars: Vec<char> = last.to_lowercase().chars().collect();
        let mid = chars.len() / 2;
        if chars.len() > 2 {
            if probes.len().is_multiple_of(2) {
                chars[mid] = 'x';
            } else {
                chars.remove(mid);
            }
        }
        probes.push(chars.into_iter().collect());
    }
    if probes.is_empty() {
        return Err("resolve bench found no probe names".to_owned());
    }

    let dir = root.join("resolve");
    let resolver = yv_core::IncrementalResolver::bootstrap(
        clone_dataset(ds),
        pipeline.clone(),
        config.clone(),
        yv_core::IncrementalConfig::default(),
    );
    let store = yv_store::Store::create(&dir, resolver, BENCH_ADD_THREADS).map_err(err)?;

    let clock = yv_obs::MonotonicClock::new();
    let hist = yv_obs::Histogram::new();
    let options = yv_store::ResolveOptions::default();
    let mut candidates = 0u64;
    for _ in 0..BENCH_RESOLVE_ROUNDS {
        for probe in &probes {
            let started = clock.now_nanos();
            let outcome = store.resolve(probe, &options);
            hist.record_ns(clock.now_nanos().saturating_sub(started));
            candidates += outcome.examined;
        }
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    let summary = hist.summary();
    registry.set_gauge(
        "yv_resolve_p50_us",
        "Median RESOLVE latency over the misspelled-probe battery",
        summary.p50_us,
    );
    registry.set_gauge(
        "yv_resolve_p99_us",
        "p99 RESOLVE latency over the misspelled-probe battery",
        summary.p99_us,
    );
    registry.set_gauge(
        "yv_resolve_max_us",
        "Worst single RESOLVE latency over the misspelled-probe battery",
        summary.max_us,
    );
    registry.set_gauge(
        "yv_resolve_candidates",
        "Candidate names examined across the battery (deterministic)",
        candidates,
    );
    Ok((summary, candidates))
}

/// Rounds of the trace-overhead stage; the per-mode p50 is the best
/// across rounds, squeezing out scheduler noise.
const BENCH_TRACE_ROUNDS: usize = 3;
/// Battery repetitions per round, so each round's histogram has enough
/// samples for a stable median.
const BENCH_TRACE_REPS: usize = 4;

/// The tracing stage of `yv bench`: run the same QUERY battery against a
/// 4-shard store with request-trace capture enabled (span recording plus
/// a push into the lock-free ring, exactly the server's hot path) and
/// with a disabled [`yv_obs::TraceCtx`] (every trace call early-returns).
/// A third mode layers the windowed-telemetry rollup on top of the traced
/// path — histogram record plus a [`yv_obs::WindowedHistogram`] rotation
/// per request, the server's worst case (the ticker normally amortizes
/// rotations). Publishes `yv_trace_overhead_{enabled,disabled}_p50_us`
/// and `yv_window_rollup_p50_us`, and fails the bench when capture costs
/// more than 5% of the untraced QUERY p50, or the windowed rollup more
/// than 5% of the traced p50 (plus an absolute floor so micro-latency
/// jitter cannot flake).
fn bench_trace_overhead(
    root: &Path,
    gen: &Generated,
    pipeline: &Pipeline,
    config: &PipelineConfig,
    registry: &MetricsRegistry,
) -> Result<(u64, u64), String> {
    use yv_obs::Clock as _;
    let ds = &gen.dataset;
    // Last-name queries over corpus names: the same shard fan-out shape
    // the server traces in production.
    let stride = (ds.len() / 16).max(1);
    let battery: Vec<PersonQuery> = (0..ds.len())
        .step_by(stride)
        .filter_map(|i| {
            let record = ds.record(yv_records::RecordId(i as u32));
            record.last_names.first().map(|last| PersonQuery {
                last_name: Some(last.clone()),
                ..PersonQuery::default()
            })
        })
        .collect();
    if battery.is_empty() {
        return Err("trace-overhead bench found no query names".to_owned());
    }

    let dir = root.join("trace-overhead");
    let resolver = yv_core::IncrementalResolver::bootstrap(
        clone_dataset(ds),
        pipeline.clone(),
        config.clone(),
        yv_core::IncrementalConfig::default(),
    );
    let store = yv_store::Store::create(&dir, resolver, BENCH_ADD_THREADS).map_err(err)?;

    let clock = yv_obs::MonotonicClock::new();
    let trace_clock: std::sync::Arc<dyn yv_obs::Clock> =
        std::sync::Arc::new(yv_obs::MonotonicClock::new());
    // Tail threshold u64::MAX: the ring still takes every capture, the
    // reservoir copies nothing — the steady-state fast path.
    let sink = yv_obs::TraceSink::new(
        yv_store::DEFAULT_TRACE_CAPACITY,
        u64::MAX,
        yv_store::DEFAULT_TRACE_SEED,
        true,
    );
    // The windowed mode's rollup target: a histogram observed by a
    // WindowedHistogram, rotated on every request (worst case).
    let window_hist = std::sync::Arc::new(yv_obs::Histogram::new());
    let windows = yv_obs::WindowedHistogram::new(
        std::sync::Arc::clone(&window_hist),
        std::sync::Arc::clone(&trace_clock),
    );
    // best[0] = capture disabled, best[1] = capture enabled,
    // best[2] = capture enabled + windowed rollup.
    let mut best = [u64::MAX; 3];
    for _ in 0..BENCH_TRACE_ROUNDS {
        for (slot, enabled) in [(0usize, false), (1, true), (2, true)] {
            let hist = yv_obs::Histogram::new();
            for _ in 0..BENCH_TRACE_REPS {
                for query in &battery {
                    let started = clock.now_nanos();
                    if enabled {
                        let mut trace = yv_obs::TraceCtx::start(
                            sink.next_id(),
                            0,
                            std::sync::Arc::clone(&trace_clock),
                        );
                        trace.set_command("QUERY");
                        let hits = store.query_traced(query, &mut trace);
                        trace.annotate("hits", hits.len() as u64);
                        if let Some(done) = trace.finish(true) {
                            sink.capture(done);
                        }
                    } else {
                        let mut trace = yv_obs::TraceCtx::disabled();
                        let _hits = store.query_traced(query, &mut trace);
                    }
                    let elapsed = clock.now_nanos().saturating_sub(started);
                    if slot == 2 {
                        window_hist.record_ns(elapsed);
                        let _ = windows.rotate();
                    }
                    hist.record_ns(clock.now_nanos().saturating_sub(started));
                }
            }
            best[slot] = best[slot].min(hist.summary().p50_us);
        }
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    registry.set_gauge(
        "yv_trace_overhead_disabled_p50_us",
        "QUERY p50 with trace capture disabled (battery, best of 3)",
        best[0],
    );
    registry.set_gauge(
        "yv_trace_overhead_enabled_p50_us",
        "QUERY p50 with trace capture + ring push enabled (battery, best of 3)",
        best[1],
    );
    registry.set_gauge(
        "yv_window_rollup_p50_us",
        "QUERY p50 traced + windowed rollup with per-request rotation (battery, best of 3)",
        best[2],
    );
    // 5% of the untraced p50, floored at 100us: capture is a bounded
    // stack write plus one seqlock slot copy, and must stay invisible.
    let allowed = best[0] + (best[0] / 20).max(100);
    if best[1] > allowed {
        return Err(format!(
            "trace capture overhead regression: QUERY p50 {} us traced vs {} us untraced \
             (allowed {} us)",
            best[1], best[0], allowed
        ));
    }
    // Same discipline for the windowed rollup: one histogram record plus
    // one (usually no-op) rotation must stay within 5% of the traced p50.
    let allowed = best[1] + (best[1] / 20).max(100);
    if best[2] > allowed {
        return Err(format!(
            "windowed rollup overhead regression: QUERY p50 {} us windowed vs {} us traced \
             (allowed {} us)",
            best[2], best[1], allowed
        ));
    }
    Ok((best[0], best[1]))
}

/// Arrivals each transport pushes through the serve bench stage.
const BENCH_SERVE_ARRIVALS: usize = 768;
/// Records per `BATCH_ADD` frame in the binary serve stage — the batch
/// size the 3x acceptance gate is defined at.
const BENCH_SERVE_BATCH: usize = 256;
/// `BATCH_ADD` frames the binary serve stage keeps in flight at once.
const BENCH_SERVE_WINDOW: usize = 4;

/// The transport stage of `yv bench`: start a real `yv serve` over a
/// 4-shard store and push the same arrival stream through each wire —
/// per-request text `ADD`s on one connection, pipelined binary
/// `BATCH_ADD` frames (batch = [`BENCH_SERVE_BATCH`]) on another with a
/// fresh identical store. Publishes records/second for both as
/// `yv_serve_text_req_per_s` / `yv_serve_binary_req_per_s` (rate-gated
/// by the compare gate) plus the raw `*_elapsed_us` timings. The binary
/// wire must clear 3x the text rate in-process: below that, batching has
/// stopped paying for its framing and the stage fails the bench.
fn bench_serve_protocols(
    root: &Path,
    gen: &Generated,
    pipeline: &Pipeline,
    config: &PipelineConfig,
    registry: &MetricsRegistry,
) -> Result<(u64, u64), String> {
    use yv_obs::Clock as _;
    let clock = yv_obs::MonotonicClock::new();
    let book_base: u64 = 800_000;
    let mut rates = [0u64; 2];
    let mut elapsed = [0u64; 2];
    for (slot, mode) in [(0usize, "text"), (1, "binary")] {
        let dir = root.join(format!("serve-{mode}"));
        let resolver = yv_core::IncrementalResolver::bootstrap(
            clone_dataset(&gen.dataset),
            pipeline.clone(),
            config.clone(),
            yv_core::IncrementalConfig::default(),
        );
        let store = yv_store::Store::create(&dir, resolver, BENCH_ADD_THREADS).map_err(err)?;
        let records_before = store.stats().records;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let addr = listener.local_addr().map_err(err)?;
        let server =
            std::thread::spawn(move || yv_store::ServeOptions::new(store).workers(2).serve(listener));

        let started = clock.now_nanos();
        let mut acked = 0usize;
        if slot == 1 {
            let mut client = yv_store::ClientOptions::new()
                .protocol(yv_store::Protocol::Binary)
                .connect(addr)
                .map_err(err)?;
            let mut pipe = client.pipeline(BENCH_SERVE_WINDOW);
            for start in (0..BENCH_SERVE_ARRIVALS).step_by(BENCH_SERVE_BATCH) {
                let chunk: Vec<_> = (start..(start + BENCH_SERVE_BATCH).min(BENCH_SERVE_ARRIVALS))
                    .map(|i| load_record(book_base, i))
                    .collect();
                pipe.push(&yv_store::RequestFrame::BatchAdd(chunk)).map_err(err)?;
            }
            for reply in pipe.flush().map_err(err)? {
                for status in reply.batch().map_err(err)? {
                    match status {
                        yv_store::BatchStatus::Ok { .. } => acked += 1,
                        yv_store::BatchStatus::Err(e) => {
                            return Err(format!("serve bench BATCH_ADD refused a record: {e}"))
                        }
                    }
                }
            }
        } else {
            let mut client = yv_store::Client::connect(addr).map_err(err)?;
            for i in 0..BENCH_SERVE_ARRIVALS {
                client.add(&load_record(book_base, i)).map_err(err)?;
                acked += 1;
            }
        }
        elapsed[slot] = clock.now_nanos().saturating_sub(started) / 1_000;
        if acked != BENCH_SERVE_ARRIVALS {
            return Err(format!(
                "serve bench ({mode}) acked {acked} of {BENCH_SERVE_ARRIVALS} arrivals"
            ));
        }
        let mut closer = yv_store::Client::connect(addr).map_err(err)?;
        closer.shutdown().map_err(err)?;
        let store = server
            .join()
            .map_err(|_| "serve bench server panicked".to_owned())?
            .map_err(err)?;
        if store.stats().records != records_before + BENCH_SERVE_ARRIVALS {
            return Err(format!("serve bench ({mode}) lost arrivals"));
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
        let per_s =
            (BENCH_SERVE_ARRIVALS as u128 * 1_000_000) / u128::from(elapsed[slot].max(1));
        rates[slot] = u64::try_from(per_s).unwrap_or(u64::MAX);
    }
    registry.set_gauge(
        "yv_serve_text_req_per_s",
        "Per-request text ADD throughput over one serve connection",
        rates[0],
    );
    registry.set_gauge(
        "yv_serve_binary_req_per_s",
        "Pipelined binary BATCH_ADD throughput (batch=256) over one serve connection",
        rates[1],
    );
    registry.set_gauge(
        "yv_serve_text_elapsed_us",
        "Wall time for the text half of the serve transport stage",
        elapsed[0],
    );
    registry.set_gauge(
        "yv_serve_binary_elapsed_us",
        "Wall time for the binary half of the serve transport stage",
        elapsed[1],
    );
    if rates[1] < rates[0].saturating_mul(3) {
        return Err(format!(
            "binary transport regression: BATCH_ADD {} req/s is under 3x the per-request \
             text ADD {} req/s",
            rates[1], rates[0]
        ));
    }
    Ok((rates[0], rates[1]))
}

pub fn query(args: &Args) -> CliResult {
    let gen = dataset(args)?;
    let certainty: f64 = args.parse_or("certainty", 0.0, "number").map_err(err)?;
    let config = PipelineConfig::default();
    let pipeline = trained(&gen, &config);
    let resolution = pipeline.resolve(&gen.dataset, &config);
    let q = PersonQuery {
        first_name: args.get("first").map(str::to_owned),
        last_name: args.get("last").map(str::to_owned),
        certainty,
        ..PersonQuery::default()
    };
    if q.first_name.is_none() && q.last_name.is_none() {
        return Err("query requires --first and/or --last".to_owned());
    }
    let hits = q.run(&gen.dataset, &resolution);
    println!("{} hit(s)", hits.len());
    for hit in hits.iter().take(10) {
        let r = gen.dataset.record(hit.seed);
        println!(
            "  BookID {:>8}  {} {}  -> entity of {} report(s)",
            r.book_id,
            r.first_names.join("/"),
            r.last_names.join("/"),
            hit.entity.len()
        );
    }
    Ok(())
}

pub fn narrate(args: &Args) -> CliResult {
    let gen = dataset(args)?;
    let top: usize = args.parse_or("top", 3, "integer").map_err(err)?;
    let config = PipelineConfig::default();
    let pipeline = trained(&gen, &config);
    let resolution = pipeline.resolve(&gen.dataset, &config);
    let mut entities = resolution.entities(0.5);
    entities.sort_by_key(|e| std::cmp::Reverse(e.len()));
    for entity in entities.iter().take(top) {
        let profile = PersonProfile::build(&gen.dataset, entity);
        println!("{}\n", profile.narrative());
    }
    Ok(())
}

/// Bootstrap or reopen the store behind `yv serve` / `yv snapshot`: an
/// existing store directory is opened (snapshot + per-shard WAL replay;
/// the shard count comes from its manifest, `--shards` is ignored);
/// otherwise a synthetic dataset is generated, a pipeline trained, and a
/// fresh store initialized at the directory with `--shards` shards.
fn open_or_bootstrap(args: &Args, dir: &std::path::Path) -> Result<yv_store::Store, String> {
    if dir.join(yv_store::SNAPSHOT_FILE).exists() {
        return yv_store::Store::open(dir).map_err(err);
    }
    let shards: usize = args.parse_or("shards", 1, "integer").map_err(err)?;
    let gen = dataset(args)?;
    let config = PipelineConfig { blocking: blocking_config(args)?, ..PipelineConfig::default() };
    let pipeline = trained(&gen, &config);
    let resolver = yv_core::IncrementalResolver::bootstrap(
        gen.dataset,
        pipeline,
        config,
        yv_core::IncrementalConfig::default(),
    );
    yv_store::Store::create(dir, resolver, shards).map_err(err)
}

pub fn serve(args: &Args) -> CliResult {
    let Some(dir) = args.get("dir") else {
        return Err("serve requires --dir <store-directory>".to_owned());
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let workers: usize = args.parse_or("workers", 4, "integer").map_err(err)?;
    let map_cache: usize = args
        .parse_or("map-cache", yv_store::DEFAULT_ENTITY_MAP_CAPACITY, "integer")
        .map_err(err)?;
    let slow_us = match args.get("slow-us") {
        Some(v) => Some(v.parse::<u64>().map_err(|_| {
            "option --slow-us: expects an integer (microseconds)".to_owned()
        })?),
        None => None,
    };
    let trace_ring: usize = args
        .parse_or("trace-ring", yv_store::DEFAULT_TRACE_CAPACITY, "integer")
        .map_err(err)?;
    let metrics_listener = match args.get("metrics-addr") {
        Some(a) => Some(std::net::TcpListener::bind(a).map_err(err)?),
        None => None,
    };
    let slo_rules = match args.get("slo") {
        Some(v) => v
            .split(',')
            .map(|chunk| yv_obs::SloRule::parse(chunk.trim()))
            .collect::<Result<Vec<_>, String>>()?,
        None => Vec::new(),
    };
    let telemetry_dir = args.get("telemetry-dir").map(std::path::PathBuf::from);
    let store = open_or_bootstrap(args, std::path::Path::new(dir))?;
    store.set_entity_map_capacity(map_cache);
    let stats = store.stats();
    let listener = std::net::TcpListener::bind(addr).map_err(err)?;
    println!(
        "serving {} records ({} ranked matches, {} shard{}) on {} with {workers} workers",
        stats.records,
        stats.matches,
        stats.shards.len(),
        if stats.shards.len() == 1 { "" } else { "s" },
        listener.local_addr().map_err(err)?
    );
    if let Some(l) = &metrics_listener {
        println!("metrics: http://{}/metrics", l.local_addr().map_err(err)?);
    }
    println!("commands: QUERY RESOLVE ADD STATS METRICS TOP TRACE HISTORY SNAPSHOT SHUTDOWN");
    let mut options = yv_store::ServeOptions::new(store)
        .workers(workers)
        .trace_ring(trace_ring)
        .trace_capture(!args.flag("no-trace"))
        .slo(slo_rules);
    if let Some(us) = slow_us {
        options = options.slow_us(us);
    }
    if let Some(telemetry_dir) = telemetry_dir {
        // The slow-request log moves next to the telemetry segments (size-
        // capped JSONL, one rotated generation) instead of spamming stderr.
        if slow_us.is_some() {
            options = options.slow_log_file(telemetry_dir.join("slow.jsonl"));
        }
        options = options.telemetry_dir(telemetry_dir);
    }
    if let Some(l) = metrics_listener {
        options = options.metrics_listener(l);
    }
    let store = options.serve(listener).map_err(err)?;
    println!("shut down cleanly; {} records snapshotted", store.stats().records);
    Ok(())
}

pub fn snapshot(args: &Args) -> CliResult {
    let Some(dir) = args.get("dir") else {
        return Err("snapshot requires --dir <store-directory>".to_owned());
    };
    let store = yv_store::Store::open(std::path::Path::new(dir)).map_err(err)?;
    let pending = store.stats().wal_entries;
    store.snapshot().map_err(err)?;
    let stats = store.stats();
    println!(
        "folded {pending} WAL entr{} into {dir}/{}: {} records, {} matches",
        if pending == 1 { "y" } else { "ies" },
        yv_store::SNAPSHOT_FILE,
        stats.records,
        stats.matches
    );
    Ok(())
}

/// Render a `TOP` report as the `yv top` dashboard. Pure — equal reports
/// render byte-identically, so tests pin the output exactly.
fn render_top(report: &yv_store::TopReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let r = &report.ring;
    let _ = writeln!(
        out,
        "trace ring: {}/{} resident, {} captured, {} evicted, {} tail-sampled",
        r.occupancy, r.capacity, r.captured, r.evicted, r.sampled
    );
    if r.last_slow != 0 {
        let _ = writeln!(out, "last slow trace: {:016x}", r.last_slow);
    }
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>7} {:>8} {:>7} {:>7} {:>7} {:>7}",
        "COMMAND", "COUNT", "ERRORS", "MEAN_US", "P50_US", "P95_US", "P99_US", "MAX_US"
    );
    for c in &report.commands {
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>7} {:>8} {:>7} {:>7} {:>7} {:>7}",
            c.name, c.count, c.errors, c.mean_us, c.p50_us, c.p95_us, c.p99_us, c.max_us
        );
    }
    if !report.slow.is_empty() {
        let _ = writeln!(out, "recent slow requests (newest first):");
        for s in &report.slow {
            let _ = writeln!(
                out,
                "  trace={:016x} {:<8} {} conn={} total_us={} spans={}",
                s.trace,
                s.command,
                if s.ok { "ok " } else { "err" },
                s.conn,
                s.total_ns / 1_000,
                s.spans
            );
        }
    }
    out
}

/// Eight-level block characters indexed low to high; zero renders as the
/// lowest block so gaps stay visible in a run of busy epochs.
const SPARK_BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render counts as a unicode sparkline, scaled to the largest value.
/// Pure: equal inputs render byte-identically.
fn sparkline(counts: &[u64]) -> String {
    let max = counts.iter().copied().max().unwrap_or(0);
    counts
        .iter()
        .map(|&n| {
            if max == 0 || n == 0 {
                SPARK_BLOCKS[0]
            } else {
                // 1..=7, so any non-zero count clears the zero glyph.
                SPARK_BLOCKS[(n * 7).div_ceil(max).min(7) as usize]
            }
        })
        .collect()
}

/// The per-epoch request counts of a `HISTORY` report over its full
/// window, oldest first, absent epochs filled with zero.
fn history_counts(report: &yv_store::HistoryReport) -> Vec<u64> {
    let lo = report.now_epoch.saturating_sub(report.window as u64);
    (lo..report.now_epoch)
        .map(|epoch| {
            report
                .buckets
                .iter()
                .find(|b| b.epoch == epoch)
                .map_or(0, |b| b.count)
        })
        .collect()
}

/// Render the windowed-telemetry section of the `yv top` dashboard: one
/// sparkline per active command plus one status line per SLO rule. Pure —
/// equal reports render byte-identically, so tests pin the output exactly.
fn render_top_history(reports: &[yv_store::HistoryReport]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let active: Vec<_> = reports.iter().filter(|r| r.summary.count > 0).collect();
    if !active.is_empty() {
        let _ = writeln!(out, "windows (last 60s, newest right):");
        for r in &active {
            let _ = writeln!(
                out,
                "  {:<10} {} {:>6} reqs  p50={}us p99={}us",
                r.metric,
                sparkline(&history_counts(r)),
                r.summary.count,
                r.summary.p50_us,
                r.summary.p99_us
            );
        }
    }
    let mut seen = std::collections::HashSet::new();
    for r in reports {
        for s in &r.slo {
            if !seen.insert((s.metric.clone(), s.threshold_us, s.window)) {
                continue;
            }
            let _ = writeln!(
                out,
                "  slo {:<8} p{} < {}us over {}s: {} (burn {}%/{}% long/short)",
                s.metric,
                (s.p * 100.0).round() as u64,
                s.threshold_us,
                s.window,
                s.state,
                s.burn_long_pct,
                s.burn_short_pct
            );
        }
    }
    out
}

/// Live introspection of a running server: one `TOP` exchange rendered
/// as a dashboard, or a 2-second refresh loop with `--watch`.
pub fn top(args: &Args) -> CliResult {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let k = match args.get("k") {
        Some(v) => Some(
            v.parse::<usize>().map_err(|_| "option --k: expects an integer".to_owned())?,
        ),
        None => None,
    };
    let mut client = yv_store::Client::connect(addr).map_err(err)?;
    loop {
        let report = client.top(k).map_err(err)?;
        print!("{}", render_top(&report));
        // One HISTORY fetch per command the server has actually seen; the
        // renderer drops idle ones, so a quiet server adds no lines.
        let mut histories = Vec::new();
        for c in report.commands.iter().filter(|c| c.count > 0) {
            histories.push(client.history(&c.name.to_lowercase(), None, None).map_err(err)?);
        }
        print!("{}", render_top_history(&histories));
        if !args.flag("watch") {
            return Ok(());
        }
        println!();
        std::thread::sleep(std::time::Duration::from_secs(2));
    }
}

/// Deterministic arrival pool for `yv load`: enough last-name variety
/// that a sharded store routes the batch across every shard.
fn load_record(book_base: u64, i: usize) -> yv_records::Record {
    const FIRST: [&str; 6] = ["Guido", "Sara", "Moshe", "Rivka", "David", "Chana"];
    const LAST: [&str; 11] = [
        "Foa", "Levi", "Postel", "Roth", "Katz", "Blum", "Stern", "Weiss", "Adler", "Braun",
        "Segal",
    ];
    yv_records::RecordBuilder::new(book_base + i as u64, yv_records::SourceId(0))
        .first_name(FIRST[i % FIRST.len()])
        .last_name(LAST[(i * 7) % LAST.len()])
        .build()
}

/// The fixed query battery `yv load` digests: the answers depend only on
/// the store's logical state, so equal digests mean equal states.
fn load_battery() -> Vec<PersonQuery> {
    ["Foa", "Levi", "Katz", "Stern", "Segal"]
        .iter()
        .flat_map(|last| {
            [0.0, 0.5].into_iter().map(move |certainty| PersonQuery {
                last_name: Some((*last).to_owned()),
                certainty,
                ..PersonQuery::default()
            })
        })
        .collect()
}

/// One `yv load` worker's share of the arrivals, over the binary
/// transport: `HELLO`-negotiated connection, records chunked into
/// `BATCH_ADD` frames of `batch`, frames pipelined with a bounded
/// in-flight window. Returns the summed per-record match counts.
fn load_binary_worker(
    addr: &str,
    t: usize,
    threads: usize,
    adds: usize,
    batch: usize,
    book_base: u64,
) -> Result<usize, String> {
    let mut client = yv_store::ClientOptions::new()
        .protocol(yv_store::Protocol::Binary)
        .connect(addr)
        .map_err(err)?;
    let mut pipe = client.pipeline(LOAD_PIPELINE_WINDOW);
    let mut chunk = Vec::with_capacity(batch);
    for i in (t..adds).step_by(threads) {
        chunk.push(load_record(book_base, i));
        if chunk.len() == batch {
            pipe.push(&yv_store::RequestFrame::BatchAdd(std::mem::take(&mut chunk)))
                .map_err(err)?;
        }
    }
    if !chunk.is_empty() {
        pipe.push(&yv_store::RequestFrame::BatchAdd(chunk)).map_err(err)?;
    }
    let mut matched = 0usize;
    for reply in pipe.flush().map_err(err)? {
        for status in reply.batch().map_err(err)? {
            match status {
                yv_store::BatchStatus::Ok { matches } => matched += matches as usize,
                yv_store::BatchStatus::Err(e) => {
                    return Err(format!("BATCH_ADD refused a record: {e}"))
                }
            }
        }
    }
    Ok(matched)
}

/// `BATCH_ADD` frames each `yv load --binary` connection keeps in
/// flight at once.
const LOAD_PIPELINE_WINDOW: usize = 4;

/// Drive a running `yv serve` instance through the typed TCP client:
/// optionally fire concurrent ADDs over several connections (per-request
/// text lines by default; `--binary` negotiates the framed transport and
/// streams `BATCH_ADD` frames of `--batch` records), then print the
/// server's stats line and a digest of a fixed query battery (equal
/// digests ⇔ equal logical state), optionally sending SHUTDOWN. This is
/// the client half of ci.sh's sharded smoke test.
pub fn load(args: &Args) -> CliResult {
    let Some(addr) = args.get("addr") else {
        return Err("load requires --addr <host:port>".to_owned());
    };
    let adds: usize = args.parse_or("adds", 0, "integer").map_err(err)?;
    let threads: usize = args.parse_or("threads", 4, "integer").map_err(err)?.max(1);
    let book_base: u64 = args.parse_or("book-base", 900_000, "integer").map_err(err)?;
    let binary = args.flag("binary");
    let batch: usize = args.parse_or("batch", 256, "integer").map_err(err)?.max(1);
    if adds > 0 {
        let matched = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || -> Result<usize, String> {
                        if binary {
                            return load_binary_worker(addr, t, threads, adds, batch, book_base);
                        }
                        let mut client = yv_store::Client::connect(addr).map_err(err)?;
                        let mut matched = 0;
                        for i in (t..adds).step_by(threads) {
                            matched += client.add(&load_record(book_base, i)).map_err(err)?;
                        }
                        Ok(matched)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("load worker panicked".to_owned())))
                .sum::<Result<usize, String>>()
        })?;
        let wire = if binary { format!("binary BATCH_ADD x{batch}") } else { "text ADD".to_owned() };
        println!("added {adds} records over {threads} connections via {wire} ({matched} matched)");
    }
    // With --binary the stats/battery connection upgrades too, so the
    // printed digest proves QUERY decodes identically on both wires
    // (ci.sh compares it against a text run over the same store).
    let protocol =
        if binary { yv_store::Protocol::Binary } else { yv_store::Protocol::Text };
    let mut client =
        yv_store::ClientOptions::new().protocol(protocol).connect(addr).map_err(err)?;
    let stats = client.stats().map_err(err)?;
    println!(
        "records={} shards={} wal={} wal_bytes={}",
        stats.records, stats.shards, stats.wal_entries, stats.wal_bytes
    );
    let mut transcript = String::new();
    for query in load_battery() {
        for hit in client.query(&query).map_err(err)? {
            use std::fmt::Write as _;
            let _ = write!(transcript, "{}:{:?};", hit.seed.0, hit.entity);
        }
        transcript.push('\n');
    }
    println!("battery digest: {:016x}", yv_store::codec::fnv1a64(transcript.as_bytes()));
    if args.flag("shutdown") {
        client.shutdown().map_err(err)?;
        println!("sent SHUTDOWN");
    }
    Ok(())
}

pub fn reproduce(args: &Args) -> CliResult {
    let scale = if args.flag("quick") {
        yv_eval::Scale::quick()
    } else {
        yv_eval::Scale::default()
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for report in yv_eval::run_all(&scale) {
        writeln!(out, "{}\n", report.render()).map_err(err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_for(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| (*s).to_owned()), &["italy", "quick"]).unwrap()
    }

    #[test]
    fn generate_runs() {
        let args = args_for(&["generate", "--records", "200", "--seed", "3"]);
        generate(&args).unwrap();
    }

    #[test]
    fn block_runs_and_reports() {
        let args = args_for(&["block", "--records", "300", "--ng", "2.0"]);
        block(&args).unwrap();
    }

    #[test]
    fn export_writes_csv() {
        let path = std::env::temp_dir().join("yv_cli_export_test.csv");
        let path_str = path.to_string_lossy().into_owned();
        let args = args_for(&["export", "--records", "50", "--path", &path_str]);
        export(&args).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.lines().count() > 10);
        assert!(content.starts_with("book_id,"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bench_writes_machine_readable_json() {
        let path = std::env::temp_dir().join("yv_cli_bench_test.json");
        let path_str = path.to_string_lossy().into_owned();
        let args = args_for(&["bench", "--records", "250", "--out", &path_str]);
        bench(&args).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"schema\": \"yv-bench-pipeline/v2\""));
        assert!(content.contains("\"stages_us\""));
        assert!(content.contains("\"blocking\":"));
        assert!(content.contains("\"total\":"));
        assert!(content.contains("\"peak_alloc_bytes\":"));
        assert!(content.contains("\"pairs_scored\":"));
        assert!(content.contains("\"yv_pipeline_stage_blocking_us\":"));
        assert!(content.contains("\"yv_resolve_p50_us\":"));
        assert!(content.contains("\"yv_resolve_p99_us\":"));
        assert!(content.contains("\"yv_resolve_max_us\":"));
        assert!(content.contains("\"yv_resolve_candidates\":"));
        assert!(content.contains("\"yv_trace_overhead_disabled_p50_us\":"));
        assert!(content.contains("\"yv_trace_overhead_enabled_p50_us\":"));
        assert!(content.contains("\"yv_window_rollup_p50_us\":"));
        assert!(content.contains("\"yv_serve_text_req_per_s\":"));
        assert!(content.contains("\"yv_serve_binary_req_per_s\":"));
        assert!(content.contains("\"yv_serve_text_elapsed_us\":"));
        assert!(content.contains("\"yv_serve_binary_elapsed_us\":"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn top_dashboard_renders_byte_identically() {
        let report = yv_store::TopReport {
            ring: yv_store::RingRow {
                capacity: 512,
                occupancy: 3,
                captured: 3,
                evicted: 0,
                sampled: 1,
                last_slow: 0x00ab_00cd_00ef_0011,
            },
            commands: vec![
                yv_store::client::CommandRow {
                    name: "QUERY".to_owned(),
                    count: 25,
                    errors: 0,
                    mean_us: 91,
                    p50_us: 128,
                    p95_us: 256,
                    p99_us: 256,
                    max_us: 227,
                },
                yv_store::client::CommandRow {
                    name: "RESOLVE".to_owned(),
                    count: 1,
                    errors: 1,
                    mean_us: 24,
                    p50_us: 24,
                    p95_us: 24,
                    p99_us: 24,
                    max_us: 24,
                },
            ],
            slow: vec![yv_store::SlowRow {
                trace: 0x00ab_00cd_00ef_0011,
                command: "RESOLVE".to_owned(),
                ok: true,
                conn: 3,
                total_ns: 24_500,
                spans: 5,
            }],
        };
        assert_eq!(
            render_top(&report),
            "trace ring: 3/512 resident, 3 captured, 0 evicted, 1 tail-sampled\n\
             last slow trace: 00ab00cd00ef0011\n\
             COMMAND       COUNT  ERRORS  MEAN_US  P50_US  P95_US  P99_US  MAX_US\n\
             QUERY            25       0       91     128     256     256     227\n\
             RESOLVE           1       1       24      24      24      24      24\n\
             recent slow requests (newest first):\n  \
             trace=00ab00cd00ef0011 RESOLVE  ok  conn=3 total_us=24 spans=5\n"
        );
        // An idle ring (nothing sampled yet) omits the slow sections.
        let idle = yv_store::TopReport {
            ring: yv_store::RingRow::default(),
            commands: Vec::new(),
            slow: Vec::new(),
        };
        let rendered = render_top(&idle);
        assert!(rendered.starts_with("trace ring: 0/0 resident"), "{rendered}");
        assert!(!rendered.contains("last slow trace"), "{rendered}");
        assert!(!rendered.contains("recent slow"), "{rendered}");
    }

    #[test]
    fn top_history_sparklines_and_slo_lines_render_byte_identically() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        assert_eq!(sparkline(&[1, 1]), "██");
        let report = yv_store::HistoryReport {
            metric: "query".to_owned(),
            tier: "s".to_owned(),
            window: 8,
            now_epoch: 9,
            summary: yv_store::HistorySummaryRow {
                count: 13,
                mean_us: 40,
                p50_us: 24,
                p95_us: 100,
                p99_us: 100,
                min_us: 10,
                max_us: 100,
            },
            slo: vec![yv_store::HistorySloRow {
                metric: "query".to_owned(),
                p: 0.99,
                threshold_us: 50_000,
                window: 60,
                short_window: 10,
                state: "ok".to_owned(),
                burn_long_pct: 0,
                burn_short_pct: 0,
            }],
            buckets: vec![
                yv_store::HistoryBucketRow {
                    epoch: 2, count: 1, mean_us: 10, p50_us: 10, max_us: 10,
                },
                yv_store::HistoryBucketRow {
                    epoch: 5, count: 4, mean_us: 20, p50_us: 20, max_us: 30,
                },
                yv_store::HistoryBucketRow {
                    epoch: 8, count: 8, mean_us: 60, p50_us: 24, max_us: 100,
                },
            ],
        };
        // Window covers epochs 1..9; gaps render as the lowest block.
        assert_eq!(
            render_top_history(std::slice::from_ref(&report)),
            "windows (last 60s, newest right):\n  \
             query      ▁▂▁▁▅▁▁█     13 reqs  p50=24us p99=100us\n  \
             slo query    p99 < 50000us over 60s: ok (burn 0%/0% long/short)\n"
        );
        // An idle metric adds no sparkline, but its SLO line still shows.
        let idle = yv_store::HistoryReport { summary: Default::default(), buckets: Vec::new(),
            ..report };
        let rendered = render_top_history(&[idle]);
        assert!(!rendered.contains("windows ("), "{rendered}");
        assert!(rendered.contains("slo query"), "{rendered}");
        assert_eq!(render_top_history(&[]), "");
    }

    #[test]
    fn bench_compare_passes_on_self_and_fails_on_injected_regression() {
        let path = std::env::temp_dir().join("yv_cli_bench_cmp_base.json");
        let path_str = path.to_string_lossy().into_owned();
        let args = args_for(&["bench", "--records", "250", "--out", &path_str]);
        bench(&args).unwrap();

        // Pure-file mode against itself: zero deltas, zero regressions.
        let args =
            args_for(&["bench", "--compare", &path_str, "--against", &path_str]);
        bench(&args).unwrap();

        // Inflate the total stage well past the ratio and the floor.
        let content = std::fs::read_to_string(&path).unwrap();
        let prefix = "    \"total\": ";
        let slowed: String = content
            .lines()
            .map(|line| match line.strip_prefix(prefix) {
                Some(rest) => {
                    let n: u64 = rest.trim_end_matches(',').parse().unwrap();
                    let comma = if rest.ends_with(',') { "," } else { "" };
                    format!("{prefix}{}{comma}\n", n * 3 + 50_000)
                }
                None => format!("{line}\n"),
            })
            .collect();
        let slow_path = std::env::temp_dir().join("yv_cli_bench_cmp_slow.json");
        let slow_str = slow_path.to_string_lossy().into_owned();
        std::fs::write(&slow_path, slowed).unwrap();
        let args = args_for(&["bench", "--compare", &path_str, "--against", &slow_str]);
        let msg = bench(&args).unwrap_err();
        assert!(msg.contains("regression"), "{msg}");

        // --against without a baseline is a usage error.
        let args = args_for(&["bench", "--against", &path_str]);
        assert!(bench(&args).is_err());
        std::fs::remove_file(path).ok();
        std::fs::remove_file(slow_path).ok();
    }

    #[test]
    fn query_requires_a_name() {
        let args = args_for(&["query", "--records", "200"]);
        assert!(query(&args).is_err());
    }
}
