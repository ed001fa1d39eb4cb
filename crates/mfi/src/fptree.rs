//! The FP-tree: a prefix tree over frequency-ordered transactions with
//! per-item node links, the core data structure of FP-Growth.
//!
//! Every tree works in *rank space*: a rank is an item's position in the
//! tree's frequency-descending order, and nodes, header chains and
//! per-rank counts are dense arrays indexed by rank. Only [`FpTree::build`]
//! sees original item ids, mapping them through a dense table sized by the
//! largest item. A conditional tree is built straight from its parent's
//! ranks ([`FpTree::conditional`]), so the mining recursion never hashes
//! an item.

/// Sentinel for "no node" / "no rank" in index fields.
const NIL: u32 = u32::MAX;

/// One FP-tree node. Children form a singly linked sibling list, so a
/// node is a fixed-size record with no heap allocation of its own.
#[derive(Debug, Clone)]
struct Node {
    rank: u32,
    parent: u32,
    /// Next node carrying the same rank (header chain).
    link: u32,
    first_child: u32,
    next_sibling: u32,
    count: u64,
}

/// An FP-tree together with its header table and the mapping from ranks
/// back to original item ids.
#[derive(Debug)]
pub struct FpTree {
    nodes: Vec<Node>,
    /// First node of each rank's header chain.
    headers: Vec<u32>,
    /// Total count per rank (support of the single-item set).
    rank_counts: Vec<u64>,
    /// Original item id per rank, frequency-descending.
    rank_to_item: Vec<u32>,
}

/// Reusable buffers for building conditional trees. `counts` is all zero
/// and `remap` all [`NIL`] between calls; both cover the ranks of the
/// largest tree they have served.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Conditional support per parent rank.
    counts: Vec<u64>,
    /// Parent ranks whose `counts` entry is nonzero.
    touched: Vec<u32>,
    /// Parent rank → conditional rank.
    remap: Vec<u32>,
    /// One prefix path, in conditional ranks.
    path: Vec<u32>,
}

impl Scratch {
    fn fit(&mut self, n_ranks: usize) {
        if self.counts.len() < n_ranks {
            self.counts.resize(n_ranks, 0);
            self.remap.resize(n_ranks, NIL);
        }
    }
}

impl FpTree {
    /// An empty tree (root only) over the given `(item, count)` ranks.
    fn with_ranks(ranks: impl ExactSizeIterator<Item = (u32, u64)>) -> FpTree {
        let n = ranks.len();
        let (rank_to_item, rank_counts) = ranks.unzip();
        let root = Node {
            rank: NIL,
            parent: NIL,
            link: NIL,
            first_child: NIL,
            next_sibling: NIL,
            count: 0,
        };
        FpTree { nodes: vec![root], headers: vec![NIL; n], rank_counts, rank_to_item }
    }

    /// Build an FP-tree from weighted transactions, keeping only items with
    /// total weight ≥ `minsup`. Transactions may contain infrequent items;
    /// they are filtered out here.
    #[must_use]
    pub fn build<'a, I>(transactions: I, minsup: u64) -> FpTree
    where
        I: IntoIterator<Item = (&'a [u32], u64)> + Clone,
    {
        // Pass 1: item frequencies (set semantics — an item counts once per
        // transaction even when the bag repeats it; `stamp` holds the
        // 1-based index of the last transaction that counted each item, 0
        // for ids below the largest that never occur).
        let mut freq: Vec<u64> = Vec::new();
        let mut stamp: Vec<usize> = Vec::new();
        for (t, (items, weight)) in transactions.clone().into_iter().enumerate() {
            for &item in items {
                let i = item as usize;
                if i >= freq.len() {
                    freq.resize(i + 1, 0);
                    stamp.resize(i + 1, 0);
                }
                if stamp[i] != t + 1 {
                    stamp[i] = t + 1;
                    freq[i] += weight;
                }
            }
        }
        let mut frequent: Vec<u32> = (0..freq.len() as u32)
            .filter(|&i| stamp[i as usize] != 0 && freq[i as usize] >= minsup)
            .collect();
        // Frequency-descending, ties by item id for determinism.
        frequent.sort_by(|&a, &b| freq[b as usize].cmp(&freq[a as usize]).then(a.cmp(&b)));
        let mut item_to_rank = vec![NIL; freq.len()];
        for (rank, &item) in frequent.iter().enumerate() {
            item_to_rank[item as usize] = rank as u32;
        }
        let mut tree = FpTree::with_ranks(frequent.iter().map(|&i| (i, freq[i as usize])));

        // Pass 2: map transactions to ranks, ascending (most frequent
        // first), and insert them in lexicographic order. A shared prefix's
        // node is then always its parent's newest child, so the child scan
        // stops at once even under a root with thousands of children.
        let mut paths: Vec<(Vec<u32>, u64)> = transactions
            .into_iter()
            .map(|(items, weight)| {
                let mut ranked: Vec<u32> =
                    items.iter().map(|&i| item_to_rank[i as usize]).filter(|&r| r != NIL).collect();
                ranked.sort_unstable();
                ranked.dedup();
                (ranked, weight)
            })
            .collect();
        paths.sort_unstable();
        for (ranked, weight) in &paths {
            tree.insert(ranked, *weight);
        }
        tree
    }

    /// Insert one path of strictly ascending ranks with the given weight.
    fn insert(&mut self, ranked: &[u32], weight: u64) {
        let mut cur = 0u32;
        for &rank in ranked {
            let mut child = self.nodes[cur as usize].first_child;
            while child != NIL && self.nodes[child as usize].rank != rank {
                child = self.nodes[child as usize].next_sibling;
            }
            if child == NIL {
                child = self.nodes.len() as u32;
                let parent = &mut self.nodes[cur as usize];
                let next_sibling = std::mem::replace(&mut parent.first_child, child);
                let link = std::mem::replace(&mut self.headers[rank as usize], child);
                self.nodes.push(Node {
                    rank,
                    parent: cur,
                    link,
                    first_child: NIL,
                    next_sibling,
                    count: 0,
                });
            }
            self.nodes[child as usize].count += weight;
            cur = child;
        }
    }

    /// Number of frequent items (ranks).
    #[must_use]
    pub fn n_ranks(&self) -> usize {
        self.rank_to_item.len()
    }

    /// Original item id of a rank.
    #[must_use]
    pub fn item_of(&self, rank: usize) -> u32 {
        self.rank_to_item[rank]
    }

    /// Support of a rank's single-item set.
    #[must_use]
    pub fn rank_count(&self, rank: usize) -> u64 {
        self.rank_counts[rank]
    }

    /// True when the tree is empty (no frequent items or no transactions).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// If the tree consists of a single path from the root, return that
    /// path as `(rank, count)` pairs from top to bottom.
    #[must_use]
    pub fn single_path(&self) -> Option<Vec<(usize, u64)>> {
        let mut path = Vec::new();
        let mut cur = self.nodes[0].first_child;
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            if node.next_sibling != NIL {
                return None;
            }
            path.push((node.rank as usize, node.count));
            cur = node.first_child;
        }
        Some(path)
    }

    /// The conditional FP-tree of a rank: the tree of its prefix paths
    /// (every path from a node carrying `rank` up to the root, weighted by
    /// that node's count), keeping the items whose conditional support is
    /// ≥ `minsup`. Empty when no item is conditionally frequent.
    #[must_use]
    pub fn conditional(&self, rank: usize, minsup: u64) -> FpTree {
        let mut scratch = Scratch::default();
        let order = self.conditional_order(rank, minsup, &mut scratch);
        self.conditional_from(rank, &order, &mut scratch)
    }

    /// First half of [`FpTree::conditional`]: the conditionally frequent
    /// ranks of this tree (all more frequent than `rank`) with their
    /// conditional supports, in the conditional tree's rank order —
    /// support-descending, ties by item id.
    pub(crate) fn conditional_order(
        &self,
        rank: usize,
        minsup: u64,
        scratch: &mut Scratch,
    ) -> Vec<(u32, u64)> {
        scratch.fit(rank);
        let Scratch { counts, touched, .. } = scratch;
        let mut node = self.headers[rank];
        while node != NIL {
            let leaf = &self.nodes[node as usize];
            let mut up = leaf.parent;
            while up != 0 {
                let ancestor = &self.nodes[up as usize];
                let count = &mut counts[ancestor.rank as usize];
                if *count == 0 {
                    touched.push(ancestor.rank);
                }
                *count += leaf.count;
                up = ancestor.parent;
            }
            node = leaf.link;
        }
        let mut order: Vec<(u32, u64)> = Vec::new();
        for r in touched.drain(..) {
            let count = std::mem::take(&mut counts[r as usize]);
            if count >= minsup {
                order.push((r, count));
            }
        }
        order.sort_unstable_by(|&(ra, ca), &(rb, cb)| {
            cb.cmp(&ca).then(self.item_of(ra as usize).cmp(&self.item_of(rb as usize)))
        });
        order
    }

    /// Second half of [`FpTree::conditional`]: insert every prefix path of
    /// `rank`, restricted to the ranks of `order`, into a new tree.
    pub(crate) fn conditional_from(
        &self,
        rank: usize,
        order: &[(u32, u64)],
        scratch: &mut Scratch,
    ) -> FpTree {
        let mut cond =
            FpTree::with_ranks(order.iter().map(|&(r, c)| (self.item_of(r as usize), c)));
        if order.is_empty() {
            return cond;
        }
        scratch.fit(rank);
        let Scratch { remap, path, .. } = scratch;
        for (new_rank, &(r, _)) in order.iter().enumerate() {
            remap[r as usize] = new_rank as u32;
        }
        let mut node = self.headers[rank];
        while node != NIL {
            let leaf = &self.nodes[node as usize];
            path.clear();
            let mut up = leaf.parent;
            while up != 0 {
                let ancestor = &self.nodes[up as usize];
                let mapped = remap[ancestor.rank as usize];
                if mapped != NIL {
                    path.push(mapped);
                }
                up = ancestor.parent;
            }
            path.sort_unstable();
            cond.insert(path, leaf.count);
            node = leaf.link;
        }
        for &(r, _) in order {
            remap[r as usize] = NIL;
        }
        cond
    }

    /// Iterate ranks from least frequent to most frequent (the FP-Growth
    /// processing order).
    pub fn ranks_ascending_frequency(&self) -> impl Iterator<Item = usize> {
        (0..self.rank_to_item.len()).rev()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<Vec<u32>> {
        vec![vec![1, 2, 3], vec![1, 2, 4], vec![1, 5], vec![6]]
    }

    fn build(bags: &[Vec<u32>], minsup: u64) -> FpTree {
        FpTree::build(bags.iter().map(|b| (b.as_slice(), 1)), minsup)
    }

    fn rank_of(tree: &FpTree, item: u32) -> usize {
        (0..tree.n_ranks()).find(|&r| tree.item_of(r) == item).unwrap()
    }

    #[test]
    fn infrequent_items_are_dropped() {
        let tree = build(&tiny(), 2);
        // Frequent at minsup 2: item 1 (3x), item 2 (2x).
        assert_eq!(tree.n_ranks(), 2);
        assert_eq!(tree.item_of(0), 1);
        assert_eq!(tree.item_of(1), 2);
        assert_eq!(tree.rank_count(0), 3);
        assert_eq!(tree.rank_count(1), 2);
    }

    #[test]
    fn empty_when_nothing_frequent() {
        let tree = build(&tiny(), 10);
        assert!(tree.is_empty());
        assert_eq!(tree.n_ranks(), 0);
    }

    #[test]
    fn single_path_detection() {
        // All transactions identical => one path.
        let bags = vec![vec![1, 2, 3]; 3];
        let tree = build(&bags, 2);
        let path = tree.single_path().expect("should be single path");
        assert_eq!(path.len(), 3);
        assert!(path.iter().all(|&(_, c)| c == 3));

        // Diverging transactions => not a single path.
        let tree2 = build(&[vec![1, 2], vec![1, 3], vec![2, 3]], 2);
        assert!(tree2.single_path().is_none());
    }

    #[test]
    fn conditional_tree_items_and_counts() {
        let bags =
            vec![vec![1, 2, 3], vec![1, 2, 3], vec![2, 3, 4], vec![2, 4], vec![1, 3], vec![4]];
        let tree = build(&bags, 2);
        // Supports: 2 → 4, 3 → 4, 4 → 3, 1 → 3; ties by item id, so the
        // least frequent rank is item 4. Its prefix paths are {2, 3} (1x)
        // and {2} (1x), so only item 2 is conditionally frequent.
        let rank_of_4 = rank_of(&tree, 4);
        assert_eq!(rank_of_4, tree.n_ranks() - 1);
        let cond = tree.conditional(rank_of_4, 2);
        assert_eq!((cond.n_ranks(), cond.item_of(0), cond.rank_count(0)), (1, 2, 2));
        assert_eq!(cond.single_path(), Some(vec![(0, 2)]));

        // Item 1's prefix paths are {2, 3} (2x) and {3} (1x): item 3 with
        // conditional support 3 ranks before item 2 with 2, and both paths
        // share the item-3 node.
        let cond = tree.conditional(rank_of(&tree, 1), 2);
        let ranks: Vec<(u32, u64)> =
            (0..cond.n_ranks()).map(|r| (cond.item_of(r), cond.rank_count(r))).collect();
        assert_eq!(ranks, vec![(3, 3), (2, 2)]);
        assert_eq!(cond.single_path(), Some(vec![(0, 3), (1, 2)]));

        // At minsup 4 nothing is conditionally frequent under item 1.
        let cond = tree.conditional(rank_of(&tree, 1), 4);
        assert!(cond.is_empty());
        assert_eq!(cond.n_ranks(), 0);
    }

    #[test]
    fn duplicate_items_in_transaction_count_once() {
        let bags = [vec![1, 1, 2], vec![1, 2]];
        let tree = FpTree::build(bags.iter().map(|b| (b.as_slice(), 1)), 2);
        // The frequency pass counts each item once per transaction, and the
        // inserted paths dedup too.
        assert_eq!(tree.rank_count(rank_of(&tree, 1)), 2);
        assert!(tree.single_path().is_some());
    }

    #[test]
    fn weighted_transactions_accumulate() {
        let bags = [vec![1u32, 2]];
        let tree = FpTree::build(bags.iter().map(|b| (b.as_slice(), 5)), 2);
        assert_eq!(tree.rank_count(0), 5);
    }
}
