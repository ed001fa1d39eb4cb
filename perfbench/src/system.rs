//! Bringing the system up the way `yv serve` does on a fresh directory —
//! generate, train, bootstrap, create the store, start the server — with
//! each step timed from outside, and tearing it down again.

use crate::corpus::Corpus;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use yv_core::{IncrementalConfig, IncrementalResolver, Pipeline, PipelineConfig, Resolution};
use yv_datagen::tag_pairs;
use yv_obs::Recorder;
use yv_store::client::StatsReport;
use yv_store::{Client, ClientOptions, Protocol, ServeOptions, Store, StoreError};

/// Shards of every store the benchmark builds (the `yv serve` default).
pub const SHARDS: usize = 1;

/// Server worker threads (the `yv serve` default).
pub const WORKERS: usize = 4;

/// How long a client waits for one reply before counting it failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Corpus size of a workload: the base plus the held-out arrivals.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub records: usize,
    pub held_out: usize,
}

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: f64,
    /// Blocking for the training set, oracle tagging and ADT training.
    pub train: f64,
    /// The ADT fit alone (`Pipeline::train`).
    pub adt_train: f64,
    /// The bootstrap's batch resolution of the base.
    pub resolve: f64,
    /// Assembling the incremental resolver around that resolution.
    pub resolver: f64,
    pub create: f64,
    pub serve_start: f64,
}

impl SetupTimes {
    #[must_use]
    pub fn total(&self) -> f64 {
        self.generate + self.train + self.resolve + self.resolver + self.create + self.serve_start
    }
}

/// A running system: corpus, trained pipeline, the base's batch
/// resolution, and a server over a freshly created store.
pub struct System {
    pub corpus: Corpus,
    pub pipeline: Pipeline,
    pub config: PipelineConfig,
    /// The bootstrap's batch resolution and its per-stage milliseconds.
    pub resolution: Resolution,
    pub stages: Vec<f64>,
    /// A copy of the freshly created store, for later fresh stores.
    pub template: PathBuf,
    pub times: SetupTimes,
}

/// Set the system up in `dir` (created; must not exist yet).
///
/// The bootstrap is `IncrementalResolver::bootstrap` in its two steps —
/// the batch resolution, then `from_parts` around its matches — so the
/// resolution's stage spans and its output are available to the batch
/// phase.
pub fn setup(
    scale: Scale,
    archive_seed: u64,
    seed: u64,
    dir: &Path,
) -> Result<(System, Server), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let corpus = Corpus::generate(scale.records, scale.held_out, archive_seed, seed);
    times.generate = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let config = PipelineConfig::default();
    let blocked = yv_blocking::mfi_blocks(&corpus.gen.dataset, &config.blocking);
    let tags = tag_pairs(&corpus.gen, &blocked.candidate_pairs, 1);
    let labelled: Vec<_> = tags
        .iter()
        .filter_map(|t| t.simplified().map(|m| (t.a, t.b, m)))
        .collect();
    let fit = Instant::now();
    let pipeline = Pipeline::train(&corpus.gen.dataset, &labelled, &config);
    times.adt_train = fit.elapsed().as_secs_f64();
    times.train = t.elapsed().as_secs_f64();

    let base = corpus.base_dataset();
    let recorder = Recorder::monotonic();
    let t = Instant::now();
    let resolution = pipeline.resolve_recorded(&base, &config, &recorder);
    times.resolve = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let resolver = IncrementalResolver::from_parts(
        base,
        pipeline.clone(),
        config.clone(),
        IncrementalConfig::default(),
        resolution.matches.clone(),
    );
    times.resolver = t.elapsed().as_secs_f64();

    let store_dir = dir.join("store");
    let t = Instant::now();
    let store = Store::create(&store_dir, resolver, SHARDS).map_err(err)?;
    times.create = t.elapsed().as_secs_f64();
    let template = dir.join("template");
    copy_dir(&store_dir, &template)?;

    let t = Instant::now();
    let server = Server::start(store)?;
    times.serve_start = t.elapsed().as_secs_f64();
    let stages = crate::phases::stage_ms(&recorder);
    Ok((
        System {
            corpus,
            pipeline,
            config,
            resolution,
            stages,
            template,
            times,
        },
        server,
    ))
}

/// Copy a store directory's files (it has no subdirectories).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(err)?;
    for entry in std::fs::read_dir(from).map_err(err)? {
        let entry = entry.map_err(err)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(err)?;
    }
    Ok(())
}

/// Connect with the benchmark's read timeout.
pub fn connect(addr: SocketAddr, protocol: Protocol) -> Result<Client, String> {
    ClientOptions::new()
        .read_timeout(READ_TIMEOUT)
        .connect_timeout(READ_TIMEOUT)
        .protocol(protocol)
        .connect(addr)
        .map_err(err)
}

/// A store served on an ephemeral loopback port by a server thread.
pub struct Server {
    pub addr: SocketAddr,
    handle: JoinHandle<Result<Store, StoreError>>,
}

impl Server {
    /// Serve `store` with the server defaults and wait until it answers.
    pub fn start(store: Store) -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let addr = listener.local_addr().map_err(err)?;
        let handle =
            std::thread::spawn(move || ServeOptions::new(store).workers(WORKERS).serve(listener));
        let server = Server { addr, handle };
        server.stats()?;
        Ok(server)
    }

    /// One `STATS` round trip on a fresh connection.
    pub fn stats(&self) -> Result<StatsReport, String> {
        connect(self.addr, Protocol::Text)?.stats().map_err(err)
    }

    /// Send `SHUTDOWN`, wait for the server thread, and take the store
    /// back (the server folds its WALs into a snapshot on the way out).
    ///
    /// The server's worker pool can miss the wake-up that ends it: the
    /// vendored channel's last `Sender` drop notifies the receivers
    /// without holding the queue lock, so a worker that goes idle just
    /// as the acceptor closes the work queue waits forever, and
    /// `SHUTDOWN` never returns (the worker that answered it goes idle at
    /// exactly that moment). So every worker is kept busy across the
    /// close: idle connections hold all workers but the one serving
    /// `SHUTDOWN`, one more waits in the queue for that worker, and all
    /// of them close only after the acceptor has stopped.
    pub fn stop(self) -> Result<Store, String> {
        let mut held = (1..WORKERS)
            .map(|_| TcpStream::connect(self.addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let mut client = connect(self.addr, Protocol::Text)?;
        // Answered, so this connection has a worker and the held ones,
        // accepted before it, have theirs.
        client.stats().map_err(err)?;
        held.push(TcpStream::connect(self.addr).map_err(err)?);
        client.shutdown().map_err(err)?;
        std::thread::sleep(Duration::from_millis(100));
        drop(held);
        drop(client);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(err)
    }
}
