//! Direct maximal frequent itemset mining (FPMax-style).
//!
//! An itemset is maximal when it is frequent and no frequent strict
//! superset exists. The miner follows the FP-Growth recursion but maintains
//! the running MFI set and applies two prunings:
//!
//! 1. **single-path shortcut** — a conditional tree that degenerates to one
//!    path contributes exactly one candidate per distinct count level, so
//!    identical duplicate records never cause subset enumeration;
//! 2. **head subsumption** — before descending into a conditional tree, the
//!    largest itemset that branch could produce (`prefix ∪ all items in the
//!    conditional tree`) is checked against the MFI set; subsumed branches
//!    are skipped wholesale.
//!
//! Conditional trees are built in rank space ([`FpTree::conditional`]):
//! conditional supports are counted into a dense array over the parent's
//! ranks, and the head check runs on the conditionally frequent items
//! before any node of the subtree is allocated.
//!
//! **The MFI set is append-only.** A candidate is recorded exactly when
//! no recorded set contains it, and no recorded set is ever removed. This
//! is exact for this depth-first order: the conditional base of rank `r`
//! holds only ranks more frequent than `r` in that tree, and the ranks of
//! a tree are visited least frequent first. So every candidate of a later
//! sibling branch lacks the item of each earlier branch at that level
//! (and, by induction, at every level above it), and no later candidate
//! can strictly contain an earlier one. A recorded candidate is therefore
//! maximal: the search covers every MFI by some candidate, and one
//! strictly containing it would come either earlier (and would have
//! subsumed it) or later (which the order rules out).

use crate::fptree::{FpTree, Scratch};

/// A mined itemset: sorted item ids and the number of supporting
/// transactions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Itemset {
    pub items: Vec<u32>,
    pub support: u64,
}

impl Itemset {
    /// True when `self.items ⊆ other` (both sorted).
    #[must_use]
    pub fn is_subset_of(&self, other: &[u32]) -> bool {
        is_subset(&self.items, other)
    }
}

/// Subset test over two sorted slices.
#[must_use]
pub fn is_subset(small: &[u32], big: &[u32]) -> bool {
    debug_assert!(small.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(big.windows(2).all(|w| w[0] < w[1]));
    let mut j = 0;
    for &x in small {
        while j < big.len() && big[j] < x {
            j += 1;
        }
        if j >= big.len() || big[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// The running MFI collection with posting-list-indexed subsumption
/// checks: `postings[item]` lists the recorded sets containing `item`, so
/// a subsumption test only inspects sets sharing the candidate's rarest
/// item instead of the whole collection (large minsup-2 runs record
/// hundreds of thousands of MFIs). Append-only: the DFS order never
/// produces a superset of a recorded set (see the module docs).
#[derive(Debug, Default)]
struct MfiSet {
    sets: Vec<Itemset>,
    /// Indexes into `sets`, per item id.
    postings: Vec<Vec<u32>>,
}

impl MfiSet {
    /// True when `candidate` (sorted) is a subset of an already-recorded
    /// MFI.
    fn subsumed(&self, candidate: &[u32]) -> bool {
        let postings = |item: u32| self.postings.get(item as usize).map_or(&[][..], Vec::as_slice);
        let Some(rarest) = candidate.iter().map(|&i| postings(i)).min_by_key(|list| list.len())
        else {
            return false; // the empty set is never recorded
        };
        rarest.iter().any(|&idx| is_subset(candidate, &self.sets[idx as usize].items))
    }

    /// Record a frequent candidate unless a recorded set contains it.
    fn insert(&mut self, items: Vec<u32>, support: u64) {
        if self.subsumed(&items) {
            return;
        }
        let idx = self.sets.len() as u32;
        for &item in &items {
            let item = item as usize;
            if item >= self.postings.len() {
                self.postings.resize_with(item + 1, Vec::new);
            }
            self.postings[item].push(idx);
        }
        self.sets.push(Itemset { items, support });
    }
}

/// Mine all maximal frequent itemsets with support ≥ `minsup` from the
/// given item bags. Items within each returned set are sorted; the result
/// is sorted for determinism. Singleton maximal itemsets are included
/// (they arise when a frequent item co-occurs with nothing frequently).
#[must_use]
pub fn mine_maximal(bags: &[Vec<u32>], minsup: u64) -> Vec<Itemset> {
    assert!(minsup >= 1, "minsup must be at least 1");
    let tree = FpTree::build(bags.iter().map(|b| (b.as_slice(), 1)), minsup);
    let mut mfis = MfiSet::default();
    fpmax(&tree, &mut Vec::new(), minsup, &mut mfis, &mut Scratch::default());
    let mut out = mfis.sets;
    out.sort();
    out
}

fn sorted(mut items: Vec<u32>) -> Vec<u32> {
    items.sort_unstable();
    items
}

fn fpmax(
    tree: &FpTree,
    prefix: &mut Vec<u32>,
    minsup: u64,
    mfis: &mut MfiSet,
    scratch: &mut Scratch,
) {
    if tree.is_empty() {
        return;
    }
    if let Some(path) = tree.single_path() {
        // Single path: every count level yields one candidate — the prefix
        // plus the path items down to that level. Only the deepest frequent
        // level can be maximal for this branch, plus shallower levels are
        // subsets, so one candidate suffices: all path nodes are already
        // ≥ minsup (infrequent items never enter the tree).
        let mut items = prefix.clone();
        items.extend(path.iter().map(|&(rank, _)| tree.item_of(rank)));
        let support = path.last().map_or(0, |&(_, c)| c);
        if !items.is_empty() {
            mfis.insert(sorted(items), support);
        }
        return;
    }
    for rank in tree.ranks_ascending_frequency() {
        prefix.push(tree.item_of(rank));
        let order = tree.conditional_order(rank, minsup, scratch);
        if order.is_empty() {
            mfis.insert(sorted(prefix.clone()), tree.rank_count(rank));
        } else {
            // Head pruning: the largest set this branch can produce,
            // checked before the conditional tree is built.
            let mut head = prefix.clone();
            head.extend(order.iter().map(|&(r, _)| tree.item_of(r as usize)));
            if !mfis.subsumed(&sorted(head)) {
                let cond = tree.conditional_from(rank, &order, scratch);
                fpmax(&cond, prefix, minsup, mfis, scratch);
            }
        }
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpgrowth::mine_frequent;
    use std::collections::BTreeSet;

    /// Reference maximality filter over the complete FI list.
    fn maximal_reference(bags: &[Vec<u32>], minsup: u64) -> Vec<Itemset> {
        let all = mine_frequent(bags, minsup);
        let sets: Vec<BTreeSet<u32>> =
            all.iter().map(|s| s.items.iter().copied().collect()).collect();
        let mut out: Vec<Itemset> = all
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                let me: BTreeSet<u32> = s.items.iter().copied().collect();
                !sets.iter().enumerate().any(|(j, other)| *i != j && me.is_subset(other) && me != *other)
            })
            .map(|(_, s)| s.clone())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn doc_example() {
        let bags = vec![vec![1, 2, 3, 4], vec![1, 2, 3, 5], vec![1, 6]];
        let mfis = mine_maximal(&bags, 2);
        assert_eq!(mfis, vec![Itemset { items: vec![1, 2, 3], support: 2 }]);
    }

    #[test]
    fn identical_bags_do_not_explode() {
        // 100 identical bags of 20 items: all-FI mining would enumerate
        // 2^20 sets; maximal mining must return exactly one.
        let bag: Vec<u32> = (0..20).collect();
        let bags = vec![bag.clone(); 100];
        let mfis = mine_maximal(&bags, 2);
        assert_eq!(mfis.len(), 1);
        assert_eq!(mfis[0].items, bag);
        assert_eq!(mfis[0].support, 100);
    }

    #[test]
    fn paper_table2_example() {
        // Records 3 and 4 of Table 2 share {F Yitzhak, L Postel, G 0};
        // encode items as ids.
        // r1: YB1927, P1 Lubaczow, ..., F Avraham, L Kesler
        // r2: P1 Lwow, ..., F Avraham, L Apoteker, G0
        // r3: P1 Antopol, ..., F Yitzhak, F Avram, L Postel, G0, P4 Poland
        // r4: P4 Poland, F Yitzhak, L Postel, G0
        let (f_yitzhak, l_postel, g0, p4_poland, f_avraham) = (1, 2, 3, 4, 5);
        let bags = vec![
            vec![f_avraham, 10, 11, 12, p4_poland],
            vec![f_avraham, 13, 14, g0, p4_poland],
            vec![f_yitzhak, 20, l_postel, g0, p4_poland],
            vec![f_yitzhak, l_postel, g0, p4_poland],
        ];
        let mfis = mine_maximal(&bags, 2);
        // {F Yitzhak, L Postel, G 0, P4 Poland} is maximal with support 2.
        assert!(mfis
            .iter()
            .any(|m| m.items == vec![f_yitzhak, l_postel, g0, p4_poland] && m.support == 2));
        // No mined set strictly contains another.
        for (i, a) in mfis.iter().enumerate() {
            for (j, b) in mfis.iter().enumerate() {
                if i != j {
                    assert!(!is_subset(&a.items, &b.items), "{a:?} subset of {b:?}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_reference_on_fixed_inputs() {
        let bags = vec![
            vec![1, 2, 3],
            vec![1, 2, 4],
            vec![1, 3, 4],
            vec![2, 3, 4],
            vec![1, 2, 3, 4],
            vec![5, 6],
            vec![5, 6, 7],
        ];
        for minsup in 1..=4 {
            assert_eq!(
                mine_maximal(&bags, minsup),
                maximal_reference(&bags, minsup),
                "minsup={minsup}"
            );
        }
    }

    #[test]
    fn is_subset_basics() {
        assert!(is_subset(&[], &[]));
        assert!(is_subset(&[], &[1]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[1], &[]));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Bags shaped like datagen's output: each is a corrupted copy of
        /// one of a few template bags (one per person) — items dropped,
        /// items swapped for random ones — over an alphabet of up to 40
        /// items, up to 40 bags.
        /// Many bags share most of their items, the case where conditional
        /// trees branch late and the MFI set fills with near-duplicates.
        struct DuplicateHeavy;

        impl Strategy for DuplicateHeavy {
            type Value = Vec<Vec<u32>>;

            fn generate(&self, rng: &mut StdRng) -> Vec<Vec<u32>> {
                let alphabet = rng.gen_range(2u32..=40);
                let template = |rng: &mut StdRng| -> Vec<u32> {
                    (0..rng.gen_range(1..=10)).map(|_| rng.gen_range(0..alphabet)).collect()
                };
                let templates: Vec<Vec<u32>> =
                    (0..rng.gen_range(1..=4)).map(|_| template(rng)).collect();
                (0..rng.gen_range(0..=40))
                    .map(|_| {
                        let template = &templates[rng.gen_range(0..templates.len())];
                        let mut bag: Vec<u32> = Vec::new();
                        for &item in template {
                            if rng.gen_bool(0.1) {
                                continue;
                            }
                            let swapped = rng.gen_bool(0.1);
                            bag.push(if swapped { rng.gen_range(0..alphabet) } else { item });
                        }
                        if rng.gen_bool(0.3) {
                            bag.push(rng.gen_range(0..alphabet));
                        }
                        bag
                    })
                    .collect()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn agrees_with_reference_on_duplicate_heavy_bags(
                bags in DuplicateHeavy,
                minsup in 2u64..6,
            ) {
                prop_assert_eq!(
                    mine_maximal(&bags, minsup),
                    maximal_reference(&bags, minsup),
                    "bags={:?} minsup={}", bags, minsup
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn agrees_with_reference(
                bags in proptest::collection::vec(
                    proptest::collection::vec(0u32..10, 0..7), 0..10),
                minsup in 1u64..4,
            ) {
                prop_assert_eq!(
                    mine_maximal(&bags, minsup),
                    maximal_reference(&bags, minsup)
                );
            }

            #[test]
            fn results_are_mutually_incomparable(
                bags in proptest::collection::vec(
                    proptest::collection::vec(0u32..12, 0..8), 0..12),
                minsup in 2u64..4,
            ) {
                let mfis = mine_maximal(&bags, minsup);
                for (i, a) in mfis.iter().enumerate() {
                    for (j, b) in mfis.iter().enumerate() {
                        if i != j {
                            prop_assert!(!is_subset(&a.items, &b.items));
                        }
                    }
                }
            }

            #[test]
            fn supports_are_correct(
                bags in proptest::collection::vec(
                    proptest::collection::vec(0u32..10, 0..7), 0..10),
                minsup in 1u64..4,
            ) {
                for mfi in mine_maximal(&bags, minsup) {
                    let true_support = bags
                        .iter()
                        .filter(|bag| {
                            let mut b = (*bag).clone();
                            b.sort_unstable();
                            b.dedup();
                            is_subset(&mfi.items, &b)
                        })
                        .count() as u64;
                    prop_assert_eq!(mfi.support, true_support);
                    prop_assert!(mfi.support >= minsup);
                }
            }
        }
    }
}
