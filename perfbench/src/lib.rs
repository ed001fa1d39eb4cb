//! End-to-end and per-layer benchmark of the resolution system.
//!
//! One run lives through a deployment's whole life cycle on a seeded
//! corpus: set-up (generate, train, bootstrap, create the store, start
//! the server — three times, for a steady set-up figure), then, in
//! interleaved cycles, the batch pipeline over the archive, QUERY/RESOLVE
//! reads over TCP at a fixed rate, reads mixed with ADDs of held-out
//! arrivals, and a pipelined `BATCH_ADD` import into a fresh store; last,
//! a read rate ladder. Every phase checks its outputs; a failed check
//! fails the run. With `--trace 1` the served traffic is also replayed
//! in-process with spans around every layer call, and the per-layer
//! figures are reported.

pub mod corpus;
pub mod load;
pub mod phases;
pub mod report;
pub mod stats;
pub mod system;
pub mod trace;

use corpus::Requests;
use load::{Inputs, Kind, Outcome};
use phases::{Fail, Served};
use report::{push, Metric, Provenance};
use std::path::Path;
use system::{err, Scale, Server};

/// The workloads: the same life cycle over two archive sizes, so costs
/// that grow with the store show against costs that do not.
pub const WORKLOADS: [(&str, Scale); 2] = [
    (
        "archive-20k",
        Scale {
            records: 22_000,
            held_out: 2_000,
        },
    ),
    (
        "archive-10k",
        Scale {
            records: 11_000,
            held_out: 1_000,
        },
    ),
];

/// A second seed, never used while tuning, reserved for checking claims.
pub const CLAIM_SEED: u64 = 20_160_626;

/// Seed of the archive itself. The archive is fixed, as a real one is;
/// `--seed` picks the held-out arrivals and all traffic. (Blocking cost
/// differs by half between generated archives, which would swamp any
/// change a gate must see.)
pub const ARCHIVE_SEED: u64 = 7;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Offered rates and phase lengths. Slice and rung lengths are shares
/// of the run's `--seconds`.
pub mod plan {
    /// QUERY+RESOLVE per second in the fixed-rate read phase (two
    /// connections).
    pub const READ_RATE: f64 = 300.0;
    /// Rate ladder for `read.max_rps`, requests per second.
    pub const LADDER: [f64; 6] = [400.0, 800.0, 1200.0, 1600.0, 2000.0, 2400.0];
    /// Reads per second in the mixed phase (one connection).
    pub const MIXED_READ_RATE: f64 = 30.0;
    /// ADDs per second in the mixed phase (one connection).
    pub const ADD_RATE: f64 = 30.0;
    /// Held-out arrivals per import round.
    pub const INGEST_RECORDS: usize = 1_024;

    /// Cycles per run; each runs the batch pipeline once, a read slice,
    /// a mixed slice and one import round.
    pub const CYCLES: usize = 4;
    pub const READ_SLICE: f64 = 0.07;
    pub const MIXED_SLICE: f64 = 0.10;
    pub const RUNG_SHARE: f64 = 0.025;
    /// Keep one in this many read answers for the correctness checks.
    pub const SAMPLE_EVERY: usize = 24;
    /// Misspelled probes `resolve.recall_at_5` is counted over.
    pub const RECALL_PROBES: usize = 8_000;
    /// Reads and ADDs the traced run replays in-process.
    pub const REPLAY_READS: usize = 300;
    pub const REPLAY_ADDS: usize = 64;
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str = "usage: yv-perfbench --workload <archive-20k|archive-10k> --seed <n> \
    --seconds <s> --trace <0|1> [--records <n>]";

/// Parse `--workload W --seed N --seconds S --trace 0|1`; `--records N`
/// shrinks the corpus (tests only; one held-out report in eleven).
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut records) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            "--records" => records = Some(value.parse::<usize>().map_err(|_| bad())?),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut scale = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|(_, s)| *s)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    if let Some(n) = records {
        scale = Scale {
            records: n,
            held_out: (n / 11).max(BATCH_MIN),
        };
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".to_owned()),
    };
    Ok(Args {
        workload,
        scale,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Fewest held-out arrivals a corpus may have: the traced replay uses
/// one `BATCH_ADD` worth beyond its single ADDs.
const BATCH_MIN: usize = phases::BATCH + plan::REPLAY_ADDS;

/// What a run prints.
#[derive(Debug)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub provenance: Provenance,
    /// Human-readable lines (counts, percentiles used, checks).
    pub notes: Vec<String>,
}

/// Run one workload in `run_dir` (created fresh, removed by the caller).
pub fn run(args: &Args, root: &Path, run_dir: &Path) -> Result<RunReport, Fail> {
    let secs = args.seconds;
    let mut notes = Vec::new();

    // Set-up, several times; the last system stays up.
    let mut setup_totals = Vec::new();
    let mut prior = Vec::new();
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let dir = run_dir.join(format!("setup-{k}"));
        let (sys, server) = system::setup(args.scale, ARCHIVE_SEED, args.seed, &dir)?;
        setup_totals.push(sys.times.total());
        prior.push((sys.times.resolve, sys.stages.clone()));
        setups.push(sys.times);
        if k + 1 < SETUPS {
            drop(server.stop()?);
            drop(sys);
            std::fs::remove_dir_all(&dir).map_err(err)?;
        } else {
            live = Some((sys, server));
        }
    }
    let (sys, server) = live.ok_or_else(|| "no set-up ran".to_owned())?;
    let base_len = sys.corpus.base.len();
    let read_slice = plan::READ_SLICE * secs;
    let mixed_slice = plan::MIXED_SLICE * secs;
    let rung_secs = plan::RUNG_SHARE * secs;
    let ladder_reads = (plan::LADDER.iter().sum::<f64>() * rung_secs) as usize;
    let cycle_reads = ((plan::READ_RATE * read_slice + plan::MIXED_READ_RATE * mixed_slice)
        as usize)
        * plan::CYCLES;
    let pool = cycle_reads + ladder_reads + plan::REPLAY_READS;
    let requests = Requests::generate(
        &sys.corpus,
        (pool / 2 + 16).max(plan::RECALL_PROBES),
        args.seed,
    );
    let inputs = Inputs {
        corpus: &sys.corpus,
        requests: &requests,
        sample_every: plan::SAMPLE_EVERY,
    };

    // The phases run interleaved, in cycles, so each one's samples span
    // the whole run rather than one stretch of it. Reads go to the
    // freshly bootstrapped store; the mixed traffic to a second store
    // opened from the same snapshot, which keeps its arrivals across
    // cycles; every import round starts from that snapshot too.
    let mixed_dir = run_dir.join("mixed-store");
    system::copy_dir(&sys.template, &mixed_dir)?;
    let mixed_server = Server::start(yv_store::Store::open(&mixed_dir).map_err(err)?)?;
    let base = sys.corpus.base_dataset();
    let per_round = plan::INGEST_RECORDS.min(sys.corpus.arrivals.len());
    let mut batch = phases::BatchOut::new(&sys, &prior)?;
    let mut read = Served::start(&server)?;
    let mut mixed = Served::start(&mixed_server)?;
    let mut ingest = phases::IngestOut::default();
    let (mut next_read, mut next_add) = (0, 0);
    for cycle in 0..plan::CYCLES {
        batch.repeat(&sys, &base)?;

        let schedules = load::schedule(plan::READ_RATE, read_slice, 2, phases::read_mix(next_read));
        next_read += (plan::READ_RATE * read_slice / 2.0) as usize + 1;
        read.slice(&server, schedules, inputs)?;

        // Reads fall half a period after the ADDs, so each lands on a new
        // write generation without queueing behind the ADD's fsync.
        let mut schedules = load::schedule(
            plan::MIXED_READ_RATE,
            mixed_slice,
            1,
            phases::read_mix(next_read),
        );
        let half_period = std::time::Duration::from_secs_f64(0.5 / plan::MIXED_READ_RATE);
        for op in schedules.iter_mut().flatten() {
            op.due += half_period;
        }
        next_read += (plan::MIXED_READ_RATE * mixed_slice / 2.0) as usize + 1;
        let first_add = next_add;
        schedules.extend(load::schedule(plan::ADD_RATE, mixed_slice, 1, |i| {
            (Kind::Add, first_add + i)
        }));
        next_add += (plan::ADD_RATE * mixed_slice).round() as usize;
        mixed.slice(&mixed_server, schedules, inputs)?;

        ingest.round(&sys, &run_dir.join(format!("ingest-{cycle}")), per_round)?;
    }

    // The rate ladder, on the read store.
    let (rungs, ladder_outcomes) =
        phases::ladder(&server, inputs, &plan::LADDER, rung_secs, next_read)?;
    let store = server.stop()?;
    let recall = phases::recall_at_k(&store, &sys.corpus, &requests.probes[..plan::RECALL_PROBES]);
    let checked = phases::check_answers(&store, &requests, &read.answers)?;
    notes.push(format!(
        "checked {checked} sampled QUERY/RESOLVE answers against the store"
    ));
    drop(store);

    let store = mixed_server.stop()?;
    let acked = mixed
        .outcomes
        .iter()
        .filter(|o| o.op.kind == Kind::Add && o.ok)
        .count();
    phases::check_acks(&store, base_len, acked)?;
    notes.push(format!("{acked} ADDs acknowledged, store grew by as many"));
    let largest: Vec<f64> = [0.0, 0.5]
        .iter()
        .map(|c| {
            store
                .entity_map(*c)
                .entities()
                .iter()
                .map(Vec::len)
                .max()
                .unwrap_or(1) as f64
        })
        .collect();
    drop(store);
    notes.push(format!(
        "{} import rounds restarted byte-identically",
        ingest.rates.len()
    ));

    // The traced replay.
    let mut tracer = trace::Tracer::new(true);
    let replay = if args.trace {
        let r = trace::replay(
            &sys,
            &requests,
            plan::REPLAY_READS,
            plan::REPLAY_ADDS,
            run_dir,
            &mut tracer,
        )?;
        let dir = root.join(".perfbench").join("traces");
        std::fs::create_dir_all(&dir).map_err(err)?;
        let path = dir.join(format!(
            "{}-seed{}-{}.jsonl",
            args.workload,
            args.seed,
            run_dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("run")
        ));
        tracer.write_jsonl(&path).map_err(err)?;
        notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
        Some(r)
    } else {
        None
    };

    let attempted = (read.outcomes.len()
        + ladder_outcomes.len()
        + mixed.outcomes.len()
        + ingest.records
        + batch.rates.len()) as u64;
    let failed = (read.failed()
        + ladder_outcomes.iter().filter(|o| !o.ok).count()
        + mixed.failed()
        + ingest.failed) as u64;

    let e2e = EndToEnd {
        setup_totals: &setup_totals,
        batch: &batch,
        read: &read,
        recall,
        rungs: &rungs,
        mixed: &mixed,
        ingest: &ingest,
    };
    let metrics = match &replay {
        None => e2e.metrics(),
        Some(r) => per_layer(&e2e, &setups, &tracer, r, &largest),
    };

    let mut p = Provenance::default();
    p.text("workload", &args.workload);
    p.num("seed", args.seed as f64);
    p.num("claim_seed", CLAIM_SEED as f64);
    p.num("archive_seed", ARCHIVE_SEED as f64);
    p.num("corpus_records", sys.corpus.gen.dataset.len() as f64);
    p.num("base_records", base_len as f64);
    p.num("held_out_records", sys.corpus.arrivals.len() as f64);
    p.num("seconds", secs);
    p.num("setups", SETUPS as f64);
    p.num("read_rate_per_s", plan::READ_RATE);
    p.num("mixed_read_rate_per_s", plan::MIXED_READ_RATE);
    p.num("add_rate_per_s", plan::ADD_RATE);
    p.list("ladder_per_s", &plan::LADDER);
    p.list(
        "ladder_tail_ms",
        &rungs.iter().map(|r| r.tail_ms).collect::<Vec<_>>(),
    );
    p.num("ladder_limit_ms", phases::LADDER_LIMIT_MS);
    p.num("ingest_records_per_round", per_round as f64);
    p.num("batch_add_frame_records", phases::BATCH as f64);
    p.num(
        "nproc",
        std::thread::available_parallelism().map_or(0, usize::from) as f64,
    );
    p.text("filesystem", &report::filesystem(run_dir));
    p.text(
        "fsync",
        "on: every ADD, and once per BATCH_ADD frame per dirty shard; both sides alike",
    );
    p.num("shards", system::SHARDS as f64);
    p.text(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    p.text("commit", &report::commit(root));
    for (name, s) in [
        ("query", stats::summarize(&read.latencies(Kind::Query))),
        ("resolve", stats::summarize(&read.latencies(Kind::Resolve))),
        ("mixed_read", stats::summarize(&mixed.reads())),
        ("add", stats::summarize(&mixed.latencies(Kind::Add))),
    ] {
        if let Some(s) = s {
            p.num(&format!("{name}_samples"), s.n as f64);
            p.num(&format!("{name}_tail_percentile"), f64::from(s.tail_p));
        }
    }
    p.num("batch_samples", batch.rates.len() as f64);
    p.num("ingest_rounds", ingest.rates.len() as f64);
    Ok(RunReport {
        correct: true,
        attempted,
        failed,
        metrics,
        provenance: p,
        notes,
    })
}

/// The figures the end-to-end metrics come from.
struct EndToEnd<'a> {
    setup_totals: &'a [f64],
    batch: &'a phases::BatchOut,
    read: &'a Served,
    recall: f64,
    rungs: &'a [phases::Rung],
    mixed: &'a Served,
    ingest: &'a phases::IngestOut,
}

impl EndToEnd<'_> {
    /// The gated end-to-end metrics: those that repeat within a tenth
    /// from run to run on the shared 2-core box.
    fn metrics(&self) -> Vec<Metric> {
        let mut m = Vec::new();
        push(&mut m, "setup_s", "s", stats::median(self.setup_totals));
        push(&mut m, "peak_rss_mb", "MiB", report::peak_rss_mib());
        push(&mut m, "batch.pair_f1", "ratio", Some(self.batch.f1));
        push(&mut m, "resolve.recall_at_5", "ratio", Some(self.recall));
        m
    }

    /// End-to-end timings, reported with the per-layer metrics and not
    /// gated: each drifts with the shared machine by more than a tenth
    /// from run to run.
    fn ungated(&self) -> Vec<Metric> {
        let mut m = Vec::new();
        let query = stats::summarize(&self.read.latencies(Kind::Query));
        let resolve = stats::summarize(&self.read.latencies(Kind::Resolve));
        let mixed = stats::summarize(&self.mixed.reads());
        let mixed_query = stats::summarize(&self.mixed.latencies(Kind::Query));
        let add = stats::summarize(&self.mixed.latencies(Kind::Add));
        push(
            &mut m,
            "batch.records_per_s",
            "rec/s",
            stats::median(&self.batch.rates),
        );
        push(&mut m, "query.p50_ms", "ms", query.map(|s| s.p50));
        push(&mut m, "query.p99_ms", "ms", query.map(|s| s.tail));
        push(&mut m, "resolve.p50_ms", "ms", resolve.map(|s| s.p50));
        push(&mut m, "resolve.p99_ms", "ms", resolve.map(|s| s.tail));
        let max_rps = self
            .rungs
            .iter()
            .filter(|r| r.pass)
            .map(|r| r.rate)
            .fold(0.0, f64::max);
        push(&mut m, "read.max_rps", "req/s", Some(max_rps));
        push(
            &mut m,
            "mixed.query_p50_ms",
            "ms",
            mixed_query.map(|s| s.p50),
        );
        push(&mut m, "mixed.read_p50_ms", "ms", mixed.map(|s| s.p50));
        push(&mut m, "mixed.read_p99_ms", "ms", mixed.map(|s| s.tail));
        push(&mut m, "add.p50_ms", "ms", add.map(|s| s.p50));
        push(&mut m, "add.p99_ms", "ms", add.map(|s| s.tail));
        push(
            &mut m,
            "ingest.records_per_s",
            "rec/s",
            stats::median(&self.ingest.rates),
        );
        m
    }
}

fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// Sum of durations over sum of counts, in µs per item.
fn per_item_us(tracer: &trace::Tracer, name: &str) -> Option<f64> {
    let total: f64 = tracer.durations_ms(name).iter().sum();
    let items: f64 = tracer.counts(name).iter().sum();
    (items > 0.0).then(|| total * 1e3 / items)
}

/// The traced run's per-layer figures.
fn per_layer(
    e2e: &EndToEnd<'_>,
    setups: &[system::SetupTimes],
    tracer: &trace::Tracer,
    replay: &trace::Replay,
    largest: &[f64],
) -> Vec<Metric> {
    let mut m = e2e.ungated();
    let setup = |f: fn(&system::SetupTimes) -> f64| -> Vec<f64> {
        setups.iter().map(|s| f(s) * 1e3).collect()
    };
    let stage = |name: &str| -> Option<f64> {
        e2e.batch
            .stage_ms
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| stats::median(v))
    };
    let d = |name: &str| tracer.durations_ms(name);

    push(
        &mut m,
        "datagen.generate_ms",
        "ms",
        stats::median(&setup(|s| s.generate)),
    );
    push(&mut m, "blocking.ms", "ms", stage("blocking"));
    push(&mut m, "blocking.mine_ms", "ms", stage("mine"));
    push(
        &mut m,
        "blocking.find_support_ms",
        "ms",
        stage("find_support"),
    );
    push(
        &mut m,
        "blocking.score_blocks_ms",
        "ms",
        stage("score_blocks"),
    );
    push(&mut m, "blocking.ng_filter_ms", "ms", stage("ng_filter"));
    push(
        &mut m,
        "blocking.candidate_pairs",
        "count",
        Some(e2e.batch.candidate_pairs as f64),
    );
    push(
        &mut m,
        "blocking.pair_precision",
        "ratio",
        Some(e2e.batch.pair_precision),
    );
    push(
        &mut m,
        "blocking.pair_recall",
        "ratio",
        Some(e2e.batch.pair_recall),
    );
    let pairs = e2e.batch.pairs_scored.max(1) as f64;
    push(
        &mut m,
        "similarity.extract_us_per_pair",
        "us",
        stage("extract").map(|v| v * 1e3 / pairs),
    );
    push(
        &mut m,
        "similarity.pairs",
        "count",
        Some(e2e.batch.pairs_scored as f64),
    );
    push(
        &mut m,
        "similarity.insert_extract_us_per_pair",
        "us",
        per_item_us(tracer, "similarity.extract"),
    );
    push(
        &mut m,
        "adt.score_us_per_pair",
        "us",
        stage("score").map(|v| v * 1e3 / pairs),
    );
    push(
        &mut m,
        "adt.insert_score_us_per_pair",
        "us",
        per_item_us(tracer, "adt.score"),
    );
    push(
        &mut m,
        "adt.train_ms",
        "ms",
        stats::median(&setup(|s| s.adt_train)),
    );
    push(
        &mut m,
        "core.bootstrap_ms",
        "ms",
        stats::median(&setup(|s| s.resolve + s.resolver)),
    );
    let insert = stats::summarize(&d("core.insert"));
    push(&mut m, "core.insert_p50_ms", "ms", insert.map(|s| s.p50));
    push(&mut m, "core.insert_p99_ms", "ms", insert.map(|s| s.tail));
    push(
        &mut m,
        "core.pairs_scored_per_insert",
        "count",
        mean(&tracer.counts("core.insert")),
    );
    push(
        &mut m,
        "core.positive_pair_ratio",
        "ratio",
        Some(replay.positive_pairs as f64 / replay.scored_pairs.max(1) as f64),
    );
    push(
        &mut m,
        "core.resolution_build_ms",
        "ms",
        stats::median(&d("core.resolution")),
    );
    push(
        &mut m,
        "core.entity_map_build_ms",
        "ms",
        stats::median(&d("core.entity_map")),
    );
    push(
        &mut m,
        "core.largest_entity_c0",
        "count",
        largest.first().copied(),
    );
    push(
        &mut m,
        "core.largest_entity_c05",
        "count",
        largest.get(1).copied(),
    );
    push(
        &mut m,
        "index.seeds_ms",
        "ms",
        stats::median(&d("index.seeds")),
    );
    push(
        &mut m,
        "index.seeds_per_query",
        "count",
        mean(&tracer.counts("index.seeds")),
    );
    push(
        &mut m,
        "index.vocabulary",
        "count",
        Some(replay.vocabulary as f64),
    );
    push(
        &mut m,
        "fuzzy.candidates_ms",
        "ms",
        stats::median(&d("fuzzy.candidates")),
    );
    let reads = tracer.counts("fuzzy.candidates").len().max(1) as f64;
    push(
        &mut m,
        "fuzzy.examined_per_query",
        "count",
        Some(replay.examined as f64 / reads),
    );
    push(
        &mut m,
        "fuzzy.pruned_ratio",
        "ratio",
        Some(replay.pruned as f64 / replay.examined.max(1) as f64),
    );
    push(
        &mut m,
        "fuzzy.rank_ms",
        "ms",
        stats::median(&d("fuzzy.rank")),
    );
    push(
        &mut m,
        "wal.append_sync_ms",
        "ms",
        stats::median(&d("wal.append_record")),
    );
    push(
        &mut m,
        "wal.append_nosync_us",
        "us",
        stats::median(&d("wal.append_nosync")).map(|v| v * 1e3),
    );
    push(&mut m, "wal.sync_ms", "ms", stats::median(&d("wal.sync")));
    push(
        &mut m,
        "wal.bytes_per_record",
        "bytes",
        Some(replay.wal_bytes_per_record),
    );
    push(
        &mut m,
        "store.add_record_ms",
        "ms",
        stats::median(&d("store.add_record")),
    );
    push(
        &mut m,
        "store.add_records_ms_per_record",
        "ms",
        per_item_us(tracer, "store.add_records").map(|v| v / 1e3),
    );
    push(
        &mut m,
        "store.query_ms",
        "ms",
        stats::median(&d("store.query")),
    );
    push(
        &mut m,
        "store.query_after_write_ms",
        "ms",
        stats::median(&d("store.query_after_write")),
    );
    push(
        &mut m,
        "store.resolve_ms",
        "ms",
        stats::median(&d("store.resolve")),
    );
    push(
        &mut m,
        "store.open_ms",
        "ms",
        stats::median(&e2e.ingest.open_ms),
    );
    // Op time minus its layer calls: locks, sequencer, memos, merge.
    let residual = |op: &str, parts: &[&str]| {
        let total: f64 = d(op).iter().sum();
        let layers: f64 = parts.iter().map(|p| d(p).iter().sum::<f64>()).sum();
        let n = d(op).len().max(1) as f64;
        Some((total - layers) / n)
    };
    push(
        &mut m,
        "store.query_residual_ms",
        "ms",
        residual("store.query", &["index.seeds"]),
    );
    push(
        &mut m,
        "store.resolve_residual_ms",
        "ms",
        residual("store.resolve", &["fuzzy.candidates", "fuzzy.rank"]),
    );
    push(
        &mut m,
        "store.add_residual_ms",
        "ms",
        residual(
            "store.add_record",
            &[
                "wal.append_record",
                "core.insert",
                "index.add_record",
                "fuzzy.add_record",
            ],
        ),
    );
    push(
        &mut m,
        "frame.encode_us_per_record",
        "us",
        per_item_us(tracer, "frame.encode"),
    );
    push(
        &mut m,
        "frame.decode_us_per_record",
        "us",
        per_item_us(tracer, "frame.decode"),
    );
    push(
        &mut m,
        "protocol.render_us",
        "us",
        stats::median(&d("protocol.render")).map(|v| v * 1e3),
    );
    push(
        &mut m,
        "protocol.reply_bytes",
        "bytes",
        mean(&tracer.counts("protocol.render")),
    );
    let read = e2e.read;
    let server_query = phases::server_mean_ms(&read.before, &read.after, "QUERY");
    push(&mut m, "server.query_mean_ms", "ms", server_query);
    push(
        &mut m,
        "server.resolve_mean_ms",
        "ms",
        phases::server_mean_ms(&read.before, &read.after, "RESOLVE"),
    );
    push(
        &mut m,
        "server.add_mean_ms",
        "ms",
        phases::server_mean_ms(&e2e.mixed.before, &e2e.mixed.after, "ADD"),
    );
    let client_query: Vec<f64> = read
        .outcomes
        .iter()
        .filter(|o| o.op.kind == Kind::Query && o.ok)
        .map(Outcome::service_ms)
        .collect();
    push(
        &mut m,
        "wire.overhead_ms",
        "ms",
        mean(&client_query).zip(server_query).map(|(c, s)| c - s),
    );
    let lag: Vec<f64> = read
        .outcomes
        .iter()
        .chain(&e2e.mixed.outcomes)
        .map(Outcome::lag_ms)
        .collect();
    push(
        &mut m,
        "client.lag_p99_ms",
        "ms",
        stats::summarize(&lag).map(|s| s.tail),
    );
    let overhead = (replay.traced_reads_ms / replay.untraced_reads_ms.max(1e-9) - 1.0) * 100.0;
    push(&mut m, "trace.overhead_pct", "%", Some(overhead));
    m
}

/// Every label the benchmark writes: metric, span and provenance names.
/// The privacy test allows exactly these words in the outputs.
#[must_use]
pub fn vocabulary() -> Vec<&'static str> {
    let mut words: Vec<&'static str> = trace::SPAN_NAMES.to_vec();
    words.extend(phases::BATCH_STAGES);
    words.extend(WORKLOADS.iter().map(|(n, _)| *n));
    words
}

/// Remove a run directory, if it is there.
pub fn cleanup(run_dir: &Path) {
    if run_dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(run_dir) {
            eprintln!(
                "perfbench: could not remove {}: {}",
                run_dir.display(),
                err(e)
            );
        }
    }
}

/// A fresh, unique run directory under `root/.perfbench/runs`.
pub fn run_dir(root: &Path) -> Result<std::path::PathBuf, String> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = root
        .join(".perfbench")
        .join("runs")
        .join(format!("run-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(err)?;
    Ok(dir)
}
