//! The phases of one run, in the order a deployment lives through them:
//! the batch resolution of the archive, reads against the freshly
//! bootstrapped store (at fixed rates, then up a rate ladder), reads
//! mixed with arrivals, and a bulk import into a fresh store.

use crate::corpus::{Corpus, Probe, Requests};
use crate::load::{self, Answers, Inputs, Kind, Outcome};
use crate::stats;
use crate::system::{connect, copy_dir, err, Server, System};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;
use yv_core::{RankedMatch, Resolution};
use yv_obs::Recorder;
use yv_records::{Dataset, RecordId};
use yv_store::client::StatsReport;
use yv_store::protocol::{format_candidates, format_hits};
use yv_store::{BatchStatus, Protocol, RequestFrame, ResolveOptions, Store};

/// Read latency limit of the rate ladder, on the tail percentile.
pub const LADDER_LIMIT_MS: f64 = 50.0;

/// Certainty at which batch entities are scored against the gold.
pub const F1_CERTAINTY: f64 = 0.5;

/// Why a run stopped: a failed output check (the run reports no
/// numbers), or the benchmark itself could not go on.
#[derive(Debug)]
pub enum Fail {
    Check(String),
    Run(String),
}

impl From<String> for Fail {
    fn from(e: String) -> Fail {
        Fail::Run(e)
    }
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), Fail> {
    if ok {
        Ok(())
    } else {
        Err(Fail::Check(what()))
    }
}

/// A digest of a ranked-match list, for determinism checks.
#[must_use]
pub fn matches_digest(matches: &[RankedMatch]) -> u64 {
    let mut bytes = Vec::with_capacity(matches.len() * 16);
    for m in matches {
        bytes.extend_from_slice(&m.a.0.to_le_bytes());
        bytes.extend_from_slice(&m.b.0.to_le_bytes());
        bytes.extend_from_slice(&m.score.to_bits().to_le_bytes());
    }
    crate::corpus::fnv1a(&bytes)
}

/// Stage spans `resolve_recorded` and `mfi_blocks_recorded` record.
pub const BATCH_STAGES: [&str; 8] = [
    "blocking",
    "mine",
    "find_support",
    "score_blocks",
    "ng_filter",
    "extract",
    "score",
    "resolve",
];

#[derive(Debug, Default)]
pub struct BatchOut {
    /// Records resolved per second, one sample per resolution.
    pub rates: Vec<f64>,
    /// Per stage, milliseconds per resolution.
    pub stage_ms: Vec<(&'static str, Vec<f64>)>,
    pub pairs_scored: u64,
    pub f1: f64,
    pub pair_precision: f64,
    pub pair_recall: f64,
    pub candidate_pairs: usize,
}

/// Milliseconds a recorder spent in each of [`BATCH_STAGES`].
#[must_use]
pub fn stage_ms(rec: &Recorder) -> Vec<f64> {
    BATCH_STAGES
        .iter()
        .map(|stage| rec.sum_ns(stage) as f64 / 1e6)
        .collect()
}

fn stage_sample(out: &mut BatchOut, stages: &[f64]) {
    for (i, (stage, ms)) in BATCH_STAGES.iter().zip(stages).enumerate() {
        if out.stage_ms.len() <= i {
            out.stage_ms.push((stage, Vec::new()));
        }
        out.stage_ms[i].1.push(*ms);
    }
}

impl BatchOut {
    /// Start from the set-ups' own resolutions of the same base (seconds,
    /// and [`stage_ms`]), which count as samples too, and score the
    /// resolution against the gold.
    pub fn new(sys: &System, setup_resolves: &[(f64, Vec<f64>)]) -> Result<BatchOut, Fail> {
        let n = sys.corpus.base.len() as f64;
        let mut out = BatchOut {
            pairs_scored: sys.resolution.matches.len() as u64,
            ..BatchOut::default()
        };
        for (t, stages) in setup_resolves {
            out.rates.push(n / t);
            stage_sample(&mut out, stages);
        }
        score_against_gold(&sys.corpus, &sys.resolution, &mut out)?;
        Ok(out)
    }

    /// One more run of the batch pipeline over `base`; it must reproduce
    /// the set-up's matches exactly.
    pub fn repeat(&mut self, sys: &System, base: &Dataset) -> Result<(), Fail> {
        let rec = Recorder::monotonic();
        let t = Instant::now();
        let resolution = sys.pipeline.resolve_recorded(base, &sys.config, &rec);
        self.rates
            .push(base.len() as f64 / t.elapsed().as_secs_f64());
        stage_sample(self, &stage_ms(&rec));
        check(
            matches_digest(&resolution.matches) == matches_digest(&sys.resolution.matches),
            || "batch resolution differs between repetitions".to_owned(),
        )
    }
}

/// Pairwise F1 of the entities at [`F1_CERTAINTY`], and the blocking's
/// pair precision and recall (every scored pair is a candidate pair).
fn score_against_gold(
    corpus: &Corpus,
    resolution: &Resolution,
    out: &mut BatchOut,
) -> Result<(), Fail> {
    let gold: HashSet<(RecordId, RecordId)> = corpus.base_gold_pairs().into_iter().collect();
    let mut predicted: HashSet<(RecordId, RecordId)> = HashSet::new();
    let mut seen = HashSet::new();
    for entity in resolution.entities(F1_CERTAINTY) {
        for (i, a) in entity.iter().enumerate() {
            check(seen.insert(*a), || {
                format!("record {} sits in two entities", a.0)
            })?;
            for b in &entity[i + 1..] {
                predicted.insert(((*a).min(*b), (*a).max(*b)));
            }
        }
    }
    let tp = predicted.intersection(&gold).count() as f64;
    let precision = tp / predicted.len().max(1) as f64;
    let recall = tp / gold.len().max(1) as f64;
    out.f1 = if tp > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };

    let candidates: HashSet<(RecordId, RecordId)> = resolution
        .matches
        .iter()
        .map(|m| (m.a.min(m.b), m.a.max(m.b)))
        .collect();
    let found = candidates.intersection(&gold).count() as f64;
    out.candidate_pairs = candidates.len();
    out.pair_precision = found / candidates.len().max(1) as f64;
    out.pair_recall = found / gold.len().max(1) as f64;
    check(out.f1 > 0.0, || {
        "batch resolution found no gold pair".to_owned()
    })
}

/// Per-command server means from a `STATS` difference, in ms.
#[must_use]
pub fn server_mean_ms(before: &StatsReport, after: &StatsReport, command: &str) -> Option<f64> {
    let row = |s: &StatsReport| {
        s.commands
            .iter()
            .find(|c| c.name == command)
            .map_or((0.0, 0.0), |c| {
                (c.count as f64, c.count as f64 * c.mean_us as f64)
            })
    };
    let ((c0, t0), (c1, t1)) = (row(before), row(after));
    (c1 > c0).then(|| (t1 - t0) / (c1 - c0) / 1e3)
}

/// One served phase's outcomes and what the server said about it.
#[derive(Debug)]
pub struct Served {
    pub outcomes: Vec<Outcome>,
    pub answers: Answers,
    pub before: StatsReport,
    pub after: StatsReport,
}

impl Served {
    #[must_use]
    pub fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.op.kind == kind)
            .map(Outcome::latency_ms)
            .collect()
    }

    #[must_use]
    pub fn reads(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.op.kind != Kind::Add)
            .map(Outcome::latency_ms)
            .collect()
    }

    #[must_use]
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok).count()
    }

    /// Nothing served yet; `STATS` as the server stands.
    pub fn start(server: &Server) -> Result<Served, String> {
        let before = server.stats()?;
        Ok(Served {
            outcomes: Vec::new(),
            answers: Answers::default(),
            after: before.clone(),
            before,
        })
    }

    /// Serve one slice of schedules, then take `STATS` again.
    pub fn slice(
        &mut self,
        server: &Server,
        schedules: Vec<Vec<load::Op>>,
        inputs: Inputs<'_>,
    ) -> Result<(), String> {
        let (outcomes, answers) = load::run(server.addr, schedules, inputs)?;
        self.outcomes.extend(outcomes);
        self.answers.merge(answers);
        self.after = server.stats()?;
        Ok(())
    }
}

/// Alternate QUERY and RESOLVE, drawing each from its own stream.
pub fn read_mix(first_query: usize) -> impl FnMut(usize) -> (Kind, usize) {
    let (mut q, mut r) = (first_query, first_query);
    move |i| {
        if i % 2 == 0 {
            q += 1;
            (Kind::Query, q - 1)
        } else {
            r += 1;
            (Kind::Resolve, r - 1)
        }
    }
}

/// One rung of the rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate: f64,
    pub tail_ms: f64,
    pub pass: bool,
}

/// Offer reads at each rate in turn for `secs` each; a rung passes when
/// nothing fails, its tail latency is within [`LADDER_LIMIT_MS`], and the
/// backlog is not growing (the last tenth of its requests also finish
/// within the limit). Stops at the first rung that does not pass.
pub fn ladder(
    server: &Server,
    inputs: Inputs<'_>,
    rates: &[f64],
    secs: f64,
    first_query: usize,
) -> Result<(Vec<Rung>, Vec<Outcome>), String> {
    let mut rungs = Vec::new();
    let mut all = Vec::new();
    let mut next = first_query;
    let inputs = Inputs {
        sample_every: usize::MAX,
        ..inputs
    };
    for &rate in rates {
        let schedules = load::schedule(rate, secs, 2, read_mix(next));
        next += (rate * secs) as usize;
        let (outcomes, _) = load::run(server.addr, schedules, inputs)?;
        let latencies: Vec<f64> = outcomes.iter().map(Outcome::latency_ms).collect();
        let Some(summary) = stats::summarize(&latencies) else {
            break;
        };
        let last_tenth = &latencies[latencies.len() - latencies.len().div_ceil(10)..];
        let backlog_ok = last_tenth.iter().all(|l| *l <= LADDER_LIMIT_MS);
        let pass = summary.tail <= LADDER_LIMIT_MS && backlog_ok;
        rungs.push(Rung {
            rate,
            tail_ms: summary.tail,
            pass,
        });
        all.extend(outcomes);
        if !pass {
            break;
        }
    }
    Ok((rungs, all))
}

/// The data lines of a rendered reply (status line and terminator off).
fn data_lines(rendered: &str) -> Vec<String> {
    let lines: Vec<&str> = rendered.lines().collect();
    lines[1.min(lines.len())..lines.len().saturating_sub(1)]
        .iter()
        .map(|l| (*l).to_owned())
        .collect()
}

/// Sampled QUERY answers over TCP must render exactly as
/// `PersonQuery::run` over the store's own resolution; sampled RESOLVE
/// answers exactly as the in-process `Store::resolve`.
pub fn check_answers(store: &Store, requests: &Requests, answers: &Answers) -> Result<usize, Fail> {
    let resolution = store.resolution();
    let mut checked = 0;
    for (index, lines) in &answers.queries {
        let query = &requests.queries[index % requests.queries.len()];
        let expected = store.with_dataset(|ds| query.run(ds, &resolution));
        check(data_lines(&format_hits(&expected)) == *lines, || {
            format!("QUERY #{index} answered differently over TCP")
        })?;
        checked += 1;
    }
    let options = ResolveOptions {
        k: load::RESOLVE_K,
        ..ResolveOptions::default()
    };
    for (index, lines) in &answers.resolves {
        let probe = &requests.probes[index % requests.probes.len()];
        let expected = store.resolve(&probe.name, &options).hits;
        check(data_lines(&format_candidates(&expected)) == *lines, || {
            format!("RESOLVE #{index} answered differently over TCP")
        })?;
        checked += 1;
    }
    Ok(checked)
}

/// Share of `probes` whose gold person is among the top
/// [`load::RESOLVE_K`] entities `Store::resolve` ranks for the misspelled
/// name. Asked in-process, on two threads, over a fixed list, so the
/// figure does not depend on how fast the machine served the reads; the
/// served replies are checked equal to `Store::resolve` by
/// [`check_answers`].
#[must_use]
pub fn recall_at_k(store: &Store, corpus: &Corpus, probes: &[Probe]) -> f64 {
    let options = ResolveOptions {
        k: load::RESOLVE_K,
        ..ResolveOptions::default()
    };
    let found = |chunk: &[Probe]| {
        chunk
            .iter()
            .filter(|probe| {
                store
                    .resolve(&probe.name, &options)
                    .hits
                    .iter()
                    .flat_map(|hit| &hit.members)
                    .any(|rid| corpus.base_person(*rid) == Some(probe.person))
            })
            .count()
    };
    let (left, right) = probes.split_at(probes.len() / 2);
    let found = std::thread::scope(|scope| {
        let other = scope.spawn(|| found(right));
        found(left)
            + other
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e))
    });
    found as f64 / probes.len().max(1) as f64
}

/// Acknowledged arrivals must be exactly the records the store gained.
pub fn check_acks(store: &Store, base_len: usize, acked: usize) -> Result<(), Fail> {
    let records = store.stats().records;
    check(records == base_len + acked, || {
        format!(
            "{acked} arrivals acknowledged but the store holds {} beyond the base",
            records as i64 - base_len as i64
        )
    })
}

/// The bulk-import phase's figures.
#[derive(Debug, Default)]
pub struct IngestOut {
    /// Acknowledged records per second, one sample per round.
    pub rates: Vec<f64>,
    pub open_ms: Vec<f64>,
    pub records: usize,
    pub failed: usize,
}

/// Records per `BATCH_ADD` frame, and frames in flight.
pub const BATCH: usize = 256;
pub const WINDOW: usize = 4;

impl IngestOut {
    /// One round: a fresh store opened from the template, one binary
    /// connection pipelining `BATCH_ADD` frames of `records` held-out
    /// arrivals, shutdown, and a restart check — `Store::open` must
    /// reproduce the served store's `state_bytes` byte for byte.
    pub fn round(&mut self, sys: &System, store_dir: &Path, records: usize) -> Result<(), Fail> {
        copy_dir(&sys.template, store_dir)?;
        let t = Instant::now();
        let store = Store::open(store_dir).map_err(err)?;
        self.open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let server = Server::start(store)?;
        let mut client = connect(server.addr, Protocol::Binary)?;
        let frames: Vec<RequestFrame> = (0..records)
            .step_by(BATCH)
            .map(|s| {
                RequestFrame::BatchAdd(
                    (s..(s + BATCH).min(records))
                        .map(|i| sys.corpus.arrival(i))
                        .collect(),
                )
            })
            .collect();
        let t = Instant::now();
        let mut pipe = client.pipeline(WINDOW);
        for frame in &frames {
            pipe.push(frame).map_err(err)?;
        }
        let replies = pipe.flush().map_err(err)?;
        let elapsed = t.elapsed().as_secs_f64();
        let mut acked = 0;
        for reply in replies {
            for status in reply.batch().map_err(err)? {
                match status {
                    BatchStatus::Ok { .. } => acked += 1,
                    BatchStatus::Err(_) => self.failed += 1,
                }
            }
        }
        drop(client);
        self.rates.push(acked as f64 / elapsed);
        self.records += records;
        let store = server.stop()?;
        check_acks(&store, sys.corpus.base.len(), acked)?;
        let served = store.state_bytes().map_err(err)?;
        drop(store);
        let restarted = Store::open(store_dir)
            .map_err(err)?
            .state_bytes()
            .map_err(err)?;
        check(served == restarted, || {
            "restart did not reproduce the ingested store".to_owned()
        })?;
        std::fs::remove_dir_all(store_dir).map_err(err)?;
        Ok(())
    }
}
