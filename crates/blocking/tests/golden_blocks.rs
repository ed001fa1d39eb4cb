//! Golden blocking output: fnv1a-64 digests of the candidate pairs, of
//! every surviving block and of the raw maximal itemsets, on a fixed
//! 3,000-record corpus. A change to the miner or to block scoring that
//! moves a single byte of blocking output fails here; a speed-up that
//! keeps the output must leave every digest as it is.

use yv_blocking::{mfi_blocks, BlockingResult, MfiBlocksConfig};
use yv_datagen::GenConfig;
use yv_mfi::{mine_maximal, prune_common_items, prune_top_frequent};

/// Streaming fnv1a-64 over little-endian integers.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u32s(&mut self, vs: impl ExactSizeIterator<Item = u32>) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.bytes(&v.to_le_bytes());
        }
    }
}

fn corpus() -> yv_records::Dataset {
    GenConfig::random(3000, 7).generate().dataset
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Checks `[(pair count, pairs digest), (block count, blocks digest)]`.
fn assert_summary(result: &BlockingResult, expected: [(usize, &str); 2]) {
    let actual = [
        (result.candidate_pairs.len(), hex(pairs_digest(result))),
        (result.blocks.len(), hex(blocks_digest(result))),
    ];
    assert_eq!(actual, expected.map(|(n, d)| (n, d.to_string())));
}

fn pairs_digest(result: &BlockingResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(result.candidate_pairs.len() as u64);
    for &(a, b) in &result.candidate_pairs {
        h.u64(u64::from(a.0) << 32 | u64::from(b.0));
    }
    h.0
}

fn blocks_digest(result: &BlockingResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(result.blocks.len() as u64);
    for block in &result.blocks {
        h.u64(block.minsup);
        h.u32s(block.items.iter().map(|i| i.0));
        h.u32s(block.records.iter().map(|r| r.0));
        h.u64(block.score.to_bits());
    }
    h.0
}

#[test]
fn default_config_blocks_are_unchanged() {
    let result = mfi_blocks(&corpus(), &MfiBlocksConfig::default());
    assert_summary(&result, [(5644, "bad7053b6772b2f0"), (1196, "bbc30950210f56cc")]);
}

#[test]
fn expert_weighting_blocks_are_unchanged() {
    let result = mfi_blocks(&corpus(), &MfiBlocksConfig::expert_weighting());
    assert_summary(&result, [(6708, "233134ced66f4efd"), (1161, "699a651093ef11ae")]);
}

#[test]
fn maximal_itemsets_on_pruned_bags_are_unchanged() {
    // The bags mined by the first MFIBlocks iteration under the default
    // configuration: the 0.03% most frequent items, then every item in
    // over 5% of records, removed.
    let ds = corpus();
    let config = MfiBlocksConfig::default();
    let raw: Vec<Vec<u32>> =
        ds.bags().iter().map(|bag| bag.iter().map(|id| id.0).collect()).collect();
    let (bags, _) = prune_top_frequent(&raw, config.prune_frequent.unwrap_or(0.0));
    let (bags, _) = prune_common_items(&bags, config.prune_common.unwrap_or(1.0));
    let actual: Vec<(u64, usize, String)> = [5, 4, 3, 2]
        .into_iter()
        .map(|minsup| {
            let mfis = mine_maximal(&bags, minsup);
            let mut h = Fnv::new();
            h.u64(mfis.len() as u64);
            for set in &mfis {
                h.u32s(set.items.iter().copied());
                h.u64(set.support);
            }
            (minsup, mfis.len(), hex(h.0))
        })
        .collect();
    let expected = [
        (5, 1722, "ea0570188af878b1"),
        (4, 2265, "95307c4d8c46e554"),
        (3, 2878, "d6d967ba6472f8e2"),
        (2, 3543, "58092637bba400d3"),
    ];
    assert_eq!(actual, expected.map(|(m, n, d)| (m, n, d.to_string())));
}
