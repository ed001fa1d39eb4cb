//! The benchmark's inputs, all derived from one seed: a `yv-datagen`
//! corpus with gold person ids, split into a base (the archive the store
//! bootstraps from) and a held-out share of arrivals (real corrupted
//! reports of people who also have a report in the base), plus the
//! seeded QUERY and RESOLVE request streams.

use std::collections::HashMap;
use yv_core::PersonQuery;
use yv_datagen::{GenConfig, Generated, PersonId};
use yv_records::{Dataset, Record, RecordId};

/// SplitMix64: a tiny seeded generator, so the inputs depend on nothing
/// but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a 64 — the digest the benchmark writes in place of any name.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A generated corpus split into base and arrivals.
#[derive(Debug)]
pub struct Corpus {
    pub gen: Generated,
    /// Corpus record ids of the base, in base (and store) order.
    pub base: Vec<RecordId>,
    /// Corpus record ids of the held-out arrivals, in arrival order.
    pub arrivals: Vec<RecordId>,
}

impl Corpus {
    /// Generate the archive (`records` reports from `archive_seed`) and
    /// hold out `held_out` of them, chosen by `seed`. A
    /// held-out report is one report of a person with at least two, so
    /// the person stays in the base; at most one per person.
    #[must_use]
    pub fn generate(records: usize, held_out: usize, archive_seed: u64, seed: u64) -> Corpus {
        let gen = GenConfig::random(records, archive_seed).generate();
        let mut by_person: HashMap<PersonId, Vec<RecordId>> = HashMap::new();
        for rid in gen.dataset.record_ids() {
            by_person.entry(gen.person_of(rid)).or_default().push(rid);
        }
        let mut persons: Vec<(PersonId, Vec<RecordId>)> = by_person
            .into_iter()
            .filter(|(_, rids)| rids.len() >= 2)
            .collect();
        persons.sort_by_key(|(p, _)| *p);
        let mut rng = Rng::new(seed ^ 0x0048_e1d0_u64);
        let mut candidates: Vec<RecordId> = persons
            .iter()
            .map(|(_, rids)| rids[rng.below(rids.len())])
            .collect();
        // Seeded Fisher-Yates, then keep the first `held_out`.
        for i in (1..candidates.len()).rev() {
            candidates.swap(i, rng.below(i + 1));
        }
        candidates.truncate(held_out);
        let mut held = vec![false; gen.dataset.len()];
        for rid in &candidates {
            held[rid.index()] = true;
        }
        let base = gen
            .dataset
            .record_ids()
            .filter(|rid| !held[rid.index()])
            .collect();
        Corpus {
            gen,
            base,
            arrivals: candidates,
        }
    }

    /// A fresh dataset holding every source and the base records, in
    /// base order — what the store bootstraps from.
    #[must_use]
    pub fn base_dataset(&self) -> Dataset {
        let mut ds = Dataset::new();
        for source in self.gen.dataset.sources() {
            ds.add_source(source.clone());
        }
        for rid in &self.base {
            ds.add_record(self.gen.dataset.record(*rid).clone());
        }
        ds
    }

    #[must_use]
    pub fn arrival(&self, i: usize) -> Record {
        self.gen
            .dataset
            .record(self.arrivals[i % self.arrivals.len()])
            .clone()
    }

    /// Gold person of a base record, by its store record id.
    #[must_use]
    pub fn base_person(&self, store_rid: RecordId) -> Option<PersonId> {
        self.base
            .get(store_rid.index())
            .map(|rid| self.gen.person_of(*rid))
    }

    /// Gold duplicate pairs among the base records, as store record ids
    /// with `a < b`.
    #[must_use]
    pub fn base_gold_pairs(&self) -> Vec<(RecordId, RecordId)> {
        let mut by_person: HashMap<PersonId, Vec<RecordId>> = HashMap::new();
        for i in 0..self.base.len() {
            let store_rid = RecordId(i as u32);
            if let Some(p) = self.base_person(store_rid) {
                by_person.entry(p).or_default().push(store_rid);
            }
        }
        let mut pairs = Vec::new();
        for rids in by_person.values() {
            for (i, a) in rids.iter().enumerate() {
                for b in &rids[i + 1..] {
                    pairs.push(((*a).min(*b), (*a).max(*b)));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Every distinct lowercased name in the corpus — what the privacy
    /// check looks for in the benchmark's outputs.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .gen
            .dataset
            .records()
            .iter()
            .flat_map(|r| r.first_names.iter().chain(r.last_names.iter()))
            .map(|n| n.to_lowercase())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

/// One misspelled RESOLVE probe and the person it should find.
#[derive(Debug, Clone)]
pub struct Probe {
    pub name: String,
    pub person: PersonId,
}

/// The certainty values queries draw from (Section 4.2's knob).
pub const CERTAINTIES: [f64; 3] = [0.0, 0.5, 1.0];

/// Seeded request streams over the base.
#[derive(Debug)]
pub struct Requests {
    pub queries: Vec<PersonQuery>,
    pub probes: Vec<Probe>,
}

impl Requests {
    /// `n` queries and `n` probes. A query's last name is the first last
    /// name of a uniformly drawn base record, so names are drawn in
    /// proportion to their record counts; certainties take the values of
    /// [`CERTAINTIES`] in turn, so every run asks each equally often (a
    /// seeded draw would shift a latency median between the three costs of
    /// expansion). A probe is a one-edit misspelling (substitute,
    /// delete, insert or transpose) of a drawn record's last name.
    #[must_use]
    pub fn generate(corpus: &Corpus, n: usize, seed: u64) -> Requests {
        let n = n.div_ceil(CERTAINTIES.len()) * CERTAINTIES.len();
        let mut rng = Rng::new(seed ^ 0x51_7e_a5);
        let ds = &corpus.gen.dataset;
        let mut queries = Vec::with_capacity(n);
        let mut probes = Vec::with_capacity(n);
        while queries.len() < n || probes.len() < n {
            let rid = corpus.base[rng.below(corpus.base.len())];
            let Some(last) = ds.record(rid).last_names.first() else {
                continue;
            };
            if queries.len() < n {
                queries.push(PersonQuery {
                    last_name: Some(last.clone()),
                    certainty: CERTAINTIES[queries.len() % CERTAINTIES.len()],
                    ..PersonQuery::default()
                });
            } else {
                let chars: Vec<char> = last.to_lowercase().chars().collect();
                if chars.len() < 3 {
                    continue;
                }
                probes.push(Probe {
                    name: misspell(&chars, &mut rng),
                    person: corpus.gen.person_of(rid),
                });
            }
        }
        Requests { queries, probes }
    }
}

/// Apply one seeded edit to a name of at least three characters.
fn misspell(chars: &[char], rng: &mut Rng) -> String {
    let mut out = chars.to_vec();
    let at = rng.below(out.len());
    match rng.below(4) {
        0 => {
            let letter = (b'a' + rng.below(26) as u8) as char;
            out[at] = if out[at] == letter { 'x' } else { letter };
        }
        1 => {
            out.remove(at);
        }
        2 => out.insert(at, (b'a' + rng.below(26) as u8) as char),
        _ => {
            let j = if at + 1 < out.len() { at + 1 } else { at - 1 };
            out.swap(at, j);
            if out == chars {
                out[at] = if out[at] == 'x' { 'q' } else { 'x' };
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Corpus::generate(1_200, 100, 7, 3);
        let b = Corpus::generate(1_200, 100, 7, 3);
        assert_eq!(a.arrivals, b.arrivals);
        let (qa, qb) = (Requests::generate(&a, 50, 3), Requests::generate(&b, 50, 3));
        assert_eq!(qa.queries, qb.queries);
        assert_eq!(
            qa.probes.iter().map(|p| &p.name).collect::<Vec<_>>(),
            qb.probes.iter().map(|p| &p.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn arrivals_are_held_out_reports_of_people_in_the_base() {
        let c = Corpus::generate(1_500, 120, 7, 5);
        assert_eq!(c.arrivals.len(), 120);
        assert_eq!(c.base.len() + c.arrivals.len(), c.gen.dataset.len());
        let base_people: std::collections::HashSet<_> =
            c.base.iter().map(|r| c.gen.person_of(*r)).collect();
        for rid in &c.arrivals {
            assert!(!c.base.contains(rid));
            assert!(base_people.contains(&c.gen.person_of(*rid)));
        }
    }

    #[test]
    fn probes_are_one_edit_away() {
        let mut rng = Rng::new(9);
        for _ in 0..500 {
            let name: Vec<char> = "kowalski".chars().collect();
            let m: Vec<char> = misspell(&name, &mut rng).chars().collect();
            assert_ne!(m, name);
            assert!((m.len() as i64 - name.len() as i64).abs() <= 1);
        }
    }
}
