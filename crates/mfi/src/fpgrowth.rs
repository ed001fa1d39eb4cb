//! Plain FP-Growth: enumerate *all* frequent itemsets.
//!
//! Used for cross-checking the maximal miner and for small workloads; the
//! blocking pipeline itself uses [`crate::mine_maximal`], because complete
//! enumeration is exponential in the number of items shared by duplicate
//! records.

use crate::fptree::{FpTree, Scratch};
use crate::maximal::Itemset;

/// Mine all frequent itemsets (support ≥ `minsup`) from the given item
/// bags. Returns itemsets with sorted items; the empty itemset is not
/// reported.
#[must_use]
pub fn mine_frequent(bags: &[Vec<u32>], minsup: u64) -> Vec<Itemset> {
    assert!(minsup >= 1, "minsup must be at least 1");
    let tree = FpTree::build(bags.iter().map(|b| (b.as_slice(), 1)), minsup);
    let mut out = Vec::new();
    grow(&tree, &mut Vec::new(), minsup, &mut out, &mut Scratch::default());
    for set in &mut out {
        set.items.sort_unstable();
    }
    out.sort();
    out
}

fn grow(
    tree: &FpTree,
    prefix: &mut Vec<u32>,
    minsup: u64,
    out: &mut Vec<Itemset>,
    scratch: &mut Scratch,
) {
    for rank in tree.ranks_ascending_frequency() {
        let support = tree.rank_count(rank);
        debug_assert!(support >= minsup);
        prefix.push(tree.item_of(rank));
        out.push(Itemset { items: prefix.clone(), support });
        let order = tree.conditional_order(rank, minsup, scratch);
        if !order.is_empty() {
            let cond = tree.conditional_from(rank, &order, scratch);
            grow(&cond, prefix, minsup, out, scratch);
        }
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    /// Brute-force reference: count support of every itemset appearing as a
    /// subset of some bag (exponential; test inputs are tiny).
    fn brute_force(bags: &[Vec<u32>], minsup: u64) -> Vec<Itemset> {
        let mut counts: HashMap<BTreeSet<u32>, u64> = HashMap::new();
        for bag in bags {
            let set: Vec<u32> = {
                let mut b = bag.clone();
                b.sort_unstable();
                b.dedup();
                b
            };
            let n = set.len();
            assert!(n <= 12, "test bag too large for brute force");
            for mask in 1u32..(1 << n) {
                let subset: BTreeSet<u32> =
                    (0..n).filter(|&i| mask & (1 << i) != 0).map(|i| set[i]).collect();
                *counts.entry(subset).or_insert(0) += 1;
            }
        }
        let mut out: Vec<Itemset> = counts
            .into_iter()
            .filter(|&(_, c)| c >= minsup)
            .map(|(s, c)| Itemset { items: s.into_iter().collect(), support: c })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn matches_brute_force_on_fixed_input() {
        let bags = vec![
            vec![1, 2, 3],
            vec![1, 2, 4],
            vec![1, 3, 4],
            vec![2, 3, 4],
            vec![1, 2, 3, 4],
        ];
        for minsup in 1..=5 {
            let fast = mine_frequent(&bags, minsup);
            let slow = brute_force(&bags, minsup);
            assert_eq!(fast, slow, "minsup={minsup}");
        }
    }

    #[test]
    fn empty_input() {
        assert!(mine_frequent(&[], 1).is_empty());
        assert!(mine_frequent(&[vec![]], 1).is_empty());
    }

    #[test]
    fn single_bag_minsup_one() {
        let out = mine_frequent(&[vec![1, 2]], 1);
        // Subsets: {1}, {2}, {1,2}.
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|s| s.support == 1));
    }

    #[test]
    #[should_panic(expected = "minsup must be at least 1")]
    fn zero_minsup_panics() {
        let _ = mine_frequent(&[vec![1]], 0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn agrees_with_brute_force(
                bags in proptest::collection::vec(
                    proptest::collection::vec(0u32..8, 0..6), 0..8),
                minsup in 1u64..4,
            ) {
                let fast = mine_frequent(&bags, minsup);
                let slow = brute_force(&bags, minsup);
                prop_assert_eq!(fast, slow);
            }
        }
    }
}
