//! The traced run: spans recorded from the benchmark's own side around
//! every call into a layer's public functions, kept in memory and
//! written out at the end.
//!
//! Served traffic is replayed in-process, in the same seeded order,
//! against a store prepared exactly as the served one was, and against
//! twins the benchmark owns (`Wal`, `IncrementalResolver`, `QueryIndex`,
//! `FuzzyIndex`), so that one ADD splits into WAL, insert, index and
//! fuzzy time and one read into seed lookup, candidates, ranking and
//! rendering. Spans carry static names, counts and ids only — never a
//! name from the corpus.

use crate::corpus::{Requests, CERTAINTIES};
use crate::load::RESOLVE_K;
use crate::phases::{Fail, BATCH};
use crate::system::{copy_dir, err, System};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use yv_core::{IncrementalConfig, IncrementalResolver};
use yv_fuzzy::{rank_entities, FuzzyIndex, DEFAULT_QGRAM_BOUND};
use yv_records::RecordId;
use yv_similarity::{extract, FEATURE_COUNT};
use yv_store::protocol::{format_candidates, format_hits};
use yv_store::{QueryIndex, RequestFrame, ResolveOptions, Store, Wal};

/// One recorded span. `request` groups the spans of one replayed
/// request (0 for spans outside any request).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// A count the call produced (seeds, pairs, bytes...), or 0.
    pub count: u64,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span collector. A disabled tracer runs the same calls and
/// records nothing — the baseline the tracing overhead is taken against.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a request span; its layer calls become its children.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        self.request = request;
        if self.enabled {
            let start_ns = self.now();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                request,
                count: 0,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now();
        }
        self.request = 0;
    }

    /// Time one layer call as a child of the open request.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: self.request,
            count: 0,
        });
        out
    }

    /// Attach a count to the span recorded last.
    pub fn count(&mut self, count: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.count = count;
        }
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration minus the time its children cover, per span.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.dur_ns());
            }
        }
        out
    }

    /// Durations (ms) of every span called `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Counts attached to every span called `name`.
    #[must_use]
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count as f64)
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let self_ns = self.self_ns();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"request\":{},\"count\":{}}}\n",
                s.name, s.start_ns, s.end_ns, self_ns[i], s.request, s.count
            ));
        }
        let mut file = std::fs::File::create(path).map_err(err)?;
        file.write_all(out.as_bytes()).map_err(err)?;
        file.sync_all().map_err(err)
    }
}

/// Names of every span the replay records.
pub const SPAN_NAMES: [&str; 27] = [
    "QUERY",
    "RESOLVE",
    "ADD",
    "BATCH_ADD",
    "store.open",
    "store.query",
    "store.resolve",
    "store.add_record",
    "store.add_records",
    "store.query_after_write",
    "index.seeds",
    "index.add_record",
    "fuzzy.candidates",
    "fuzzy.rank",
    "fuzzy.add_record",
    "protocol.render",
    "wal.append_record",
    "wal.append_nosync",
    "wal.sync",
    "core.insert",
    "core.resolution",
    "core.entity_map",
    "similarity.extract",
    "adt.score",
    "frame.encode",
    "frame.decode",
    "REBUILD",
];

/// What the replay measured besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    pub untraced_reads_ms: f64,
    pub traced_reads_ms: f64,
    pub examined: u64,
    pub pruned: u64,
    pub scored_pairs: u64,
    pub positive_pairs: u64,
    pub wal_bytes_per_record: f64,
    pub vocabulary: usize,
}

/// Replay `reads` QUERY/RESOLVE pairs (a warm-up and an untraced pass,
/// then a traced one), `adds` single ADDs and one `BATCH_ADD` of
/// [`BATCH`] arrivals, recording spans into `tracer`. Every twin answer
/// must equal the prepared store's.
pub fn replay(
    sys: &System,
    requests: &Requests,
    reads: usize,
    adds: usize,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Replay, Fail> {
    let mut figures = Replay::default();
    let store_dir = dir.join("replay-store");
    copy_dir(&sys.template, &store_dir)?;
    let store = tracer
        .time("store.open", || Store::open(&store_dir))
        .map_err(err)?;

    let base = sys.corpus.base_dataset();
    let mut index = QueryIndex::build(&base);
    figures.vocabulary = index.vocabulary_size();
    let mut fuzzy = FuzzyIndex::new();
    for rid in base.record_ids() {
        fuzzy.add_record(rid, base.record(rid));
    }
    let mut resolver = IncrementalResolver::from_parts(
        base,
        sys.pipeline.clone(),
        sys.config.clone(),
        IncrementalConfig::default(),
        sys.resolution.matches.clone(),
    );
    let mut wal = Wal::create(&dir.join("twin.yvl")).map_err(err)?;
    // Warm the memos, as the served store's first requests do.
    for c in CERTAINTIES {
        let _ = store.entity_map(c);
    }

    // A warm-up pass, then the untraced and traced passes compared.
    read_pass(
        &store,
        &index,
        &fuzzy,
        requests,
        reads,
        &mut Tracer::new(false),
        &mut Replay::default(),
    )?;
    let t = Instant::now();
    read_pass(
        &store,
        &index,
        &fuzzy,
        requests,
        reads,
        &mut Tracer::new(false),
        &mut Replay::default(),
    )?;
    figures.untraced_reads_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    read_pass(
        &store,
        &index,
        &fuzzy,
        requests,
        reads,
        tracer,
        &mut figures,
    )?;
    figures.traced_reads_ms = t.elapsed().as_secs_f64() * 1e3;

    let model = &sys.pipeline.model;
    for i in 0..adds {
        let record = sys.corpus.arrival(i);
        let seq = i as u64;
        tracer.begin("ADD", 1_000_000 + seq);
        tracer
            .time("wal.append_record", || wal.append_record(seq, &record))
            .map_err(err)?;
        let rid = RecordId(resolver.len() as u32);
        let matches = tracer.time("core.insert", || resolver.insert(record.clone()));
        tracer.count(matches.len() as u64);
        let stored = resolver.dataset().record(rid);
        tracer.time("index.add_record", || index.add_record(rid, stored));
        tracer.time("fuzzy.add_record", || fuzzy.add_record(rid, stored));
        let served = tracer
            .time("store.add_record", || store.add_record(record))
            .map_err(err)?;
        if served.len() != matches.len() {
            return Err(Fail::Check(format!(
                "ADD #{i}: the twin resolver scored a different candidate set"
            )));
        }
        // The insert's pair scoring, re-run from outside per layer.
        let ds = resolver.dataset();
        let rows: Vec<Vec<Option<f64>>> = tracer.time("similarity.extract", || {
            matches
                .iter()
                .map(|m| {
                    let fv = extract(ds.record(m.a), ds.record(m.b));
                    (0..FEATURE_COUNT).map(|f| fv.get(f)).collect()
                })
                .collect()
        });
        tracer.count(rows.len() as u64);
        let scores: Vec<f64> = tracer.time("adt.score", || {
            rows.iter().map(|r| model.score(r)).collect()
        });
        tracer.count(scores.len() as u64);
        figures.scored_pairs += scores.len() as u64;
        figures.positive_pairs += scores.iter().filter(|s| **s >= 0.0).count() as u64;
        tracer.end();
        if i % 4 == 3 {
            // The rebuild the next read after a write pays.
            tracer.begin("REBUILD", 2_000_000 + seq);
            let certainty = CERTAINTIES[(i / 4) % CERTAINTIES.len()];
            let resolution = tracer.time("core.resolution", || resolver.resolution());
            tracer.time("core.entity_map", || resolution.entity_map(certainty));
            let query = &requests.queries[i % requests.queries.len()];
            tracer.time("store.query_after_write", || store.query(query));
            tracer.end();
        }
    }

    let records: Vec<_> = (adds..adds + BATCH)
        .map(|i| sys.corpus.arrival(i))
        .collect();
    tracer.begin("BATCH_ADD", 3_000_000);
    let frame = RequestFrame::BatchAdd(records.clone());
    let bytes = tracer
        .time("frame.encode", || frame.encode())
        .map_err(err)?;
    tracer.count(records.len() as u64);
    let decoded = tracer
        .time("frame.decode", || RequestFrame::read(&mut bytes.as_slice()))
        .map_err(err)?;
    tracer.count(records.len() as u64);
    if decoded.as_ref() != Some(&frame) {
        return Err(Fail::Check(
            "BATCH_ADD frame did not decode to what was encoded".to_owned(),
        ));
    }
    let wal_before = wal.bytes();
    for (k, record) in records.iter().enumerate() {
        let seq = (adds + k) as u64;
        tracer
            .time("wal.append_nosync", || {
                wal.append_record_nosync(seq, record)
            })
            .map_err(err)?;
    }
    tracer.time("wal.sync", || wal.sync()).map_err(err)?;
    figures.wal_bytes_per_record = (wal.bytes() - wal_before) as f64 / records.len() as f64;
    let statuses = tracer.time("store.add_records", || store.add_records(records));
    tracer.count(statuses.len() as u64);
    tracer.end();
    if statuses.iter().any(Result::is_err) {
        return Err(Fail::Check(
            "the prepared store refused a BATCH_ADD record".to_owned(),
        ));
    }
    drop(store);
    std::fs::remove_dir_all(&store_dir).map_err(err)?;
    Ok(figures)
}

/// One pass of QUERY/RESOLVE pairs through the store and the twins.
fn read_pass(
    store: &Store,
    index: &QueryIndex,
    fuzzy: &FuzzyIndex,
    requests: &Requests,
    reads: usize,
    tracer: &mut Tracer,
    figures: &mut Replay,
) -> Result<(), Fail> {
    let options = ResolveOptions {
        k: RESOLVE_K,
        ..ResolveOptions::default()
    };
    let entity_map = store.entity_map(0.0);
    let resolution = store.resolution();
    let mut certainty: Vec<f64> = Vec::new();
    for m in &resolution.matches {
        for rid in [m.a, m.b] {
            if rid.index() >= certainty.len() {
                certainty.resize(rid.index() + 1, 0.0);
            }
            certainty[rid.index()] = certainty[rid.index()].max(m.score);
        }
    }
    for i in 0..reads {
        let query = &requests.queries[i % requests.queries.len()];
        tracer.begin("QUERY", 2 * i as u64 + 1);
        let hits = tracer.time("store.query", || store.query(query));
        let seeds = tracer.time("index.seeds", || index.seeds(query));
        tracer.count(seeds.len() as u64);
        let text = tracer.time("protocol.render", || format_hits(&hits));
        tracer.count(text.len() as u64);
        tracer.end();
        if seeds.len() != hits.len() {
            return Err(Fail::Check(format!(
                "QUERY #{i}: the twin index found other seeds"
            )));
        }

        let probe = &requests.probes[i % requests.probes.len()];
        tracer.begin("RESOLVE", 2 * i as u64 + 2);
        let outcome = tracer.time("store.resolve", || store.resolve(&probe.name, &options));
        let lower = probe.name.to_lowercase();
        let (candidates, stats) = tracer.time("fuzzy.candidates", || {
            fuzzy.candidates(&lower, DEFAULT_QGRAM_BOUND)
        });
        tracer.count(stats.examined);
        let ranked = tracer.time("fuzzy.rank", || {
            rank_entities(
                &lower,
                candidates.iter().map(|c| (c.name, c.jaccard, c.records)),
                |rid| {
                    entity_map
                        .entity_of(rid)
                        .map_or_else(|| vec![rid], <[RecordId]>::to_vec)
                },
                |rid| certainty.get(rid.index()).copied().unwrap_or(0.0),
                &options.blend,
                options.k,
                options.min_score,
            )
        });
        let text = tracer.time("protocol.render", || format_candidates(&outcome.hits));
        tracer.count(text.len() as u64);
        tracer.end();
        if ranked != outcome.hits {
            return Err(Fail::Check(format!(
                "RESOLVE #{i}: the twin ranking differs from the store's"
            )));
        }
        figures.examined += stats.examined;
        figures.pruned += stats.pruned_length + stats.pruned_jaccard;
    }
    Ok(())
}
