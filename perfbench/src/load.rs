//! Open-loop load over TCP, on the binary protocol: the text protocol
//! cannot carry a name with whitespace (a last name like "della torre"
//! in the corpus), and the binary one renders the same replies.
//!
//! Each connection thread walks its own schedule: it sends a request at
//! its due time, or at once when it is already late, and waits for the
//! reply. Latency is timed from when the request was due, so a stall also
//! counts the wait it imposes on the requests behind it; how late the
//! generator itself ran is kept apart (`lag`).

use crate::corpus::{Corpus, Requests};
use crate::system::connect;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use yv_store::{Client, ClientError, Protocol, RequestFrame};

/// Candidates asked of every `RESOLVE`; recall is counted over as many.
pub const RESOLVE_K: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Resolve,
    Add,
}

/// One scheduled request: which input, and when it is due (from the
/// phase start).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub index: usize,
    pub due: Duration,
}

#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub op: Op,
    pub sent: Duration,
    pub done: Duration,
    pub ok: bool,
}

impl Outcome {
    /// Due-to-reply latency; a failed request is an infinite miss.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            ms(self.done.saturating_sub(self.op.due))
        } else {
            f64::INFINITY
        }
    }

    /// Send-to-reply time, what the client saw of the server.
    #[must_use]
    pub fn service_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.sent))
    }

    /// How late the generator sent the request.
    #[must_use]
    pub fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_sub(self.op.due))
    }
}

#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Answers kept for the correctness checks.
#[derive(Debug, Default)]
pub struct Answers {
    /// Sampled QUERY and RESOLVE replies, as rendered data lines.
    pub queries: Vec<(usize, Vec<String>)>,
    pub resolves: Vec<(usize, Vec<String>)>,
}

impl Answers {
    pub fn merge(&mut self, other: Answers) {
        self.queries.extend(other.queries);
        self.resolves.extend(other.resolves);
    }
}

/// The inputs the ops index into.
#[derive(Clone, Copy)]
pub struct Inputs<'a> {
    pub corpus: &'a Corpus,
    pub requests: &'a Requests,
    /// Keep every `sample_every`-th QUERY and RESOLVE answer.
    pub sample_every: usize,
}

/// A constant-rate schedule of `rate` requests per second for `secs`,
/// dealt round-robin over `connections`. `pick(i)` chooses op `i`.
pub fn schedule(
    rate: f64,
    secs: f64,
    connections: usize,
    mut pick: impl FnMut(usize) -> (Kind, usize),
) -> Vec<Vec<Op>> {
    let n = (rate * secs).round() as usize;
    let mut out: Vec<Vec<Op>> = vec![Vec::new(); connections.max(1)];
    for i in 0..n {
        let (kind, index) = pick(i);
        let due = Duration::from_secs_f64(i as f64 / rate);
        out[i % connections.max(1)].push(Op { kind, index, due });
    }
    out
}

/// Run one schedule per connection, all connections from one start, and
/// return every outcome (ordered by due time) plus the kept answers.
pub fn run(
    addr: SocketAddr,
    schedules: Vec<Vec<Op>>,
    inputs: Inputs<'_>,
) -> Result<(Vec<Outcome>, Answers), String> {
    // Connect first, so connection set-up is not charged to the first op.
    let mut clients = Vec::with_capacity(schedules.len());
    for _ in &schedules {
        clients.push(connect(addr, Protocol::Binary)?);
    }
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<std::thread::Result<(Vec<Outcome>, Answers)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .into_iter()
            .zip(clients)
            .map(|(ops, client)| scope.spawn(move || drive(addr, client, &ops, start, inputs)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut outcomes = Vec::new();
    let mut answers = Answers::default();
    for result in results {
        let (o, a) = result.map_err(|_| "load thread panicked".to_owned())?;
        outcomes.extend(o);
        answers.merge(a);
    }
    outcomes.sort_by_key(|o| o.op.due);
    Ok((outcomes, answers))
}

fn drive(
    addr: SocketAddr,
    mut client: yv_store::Client,
    ops: &[Op],
    start: Instant,
    inputs: Inputs<'_>,
) -> (Vec<Outcome>, Answers) {
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut answers = Answers::default();
    let every = inputs.sample_every.max(1);
    for op in ops {
        let due = start + op.due;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = start.elapsed();
        let ok = match op.kind {
            Kind::Query => {
                let query = &inputs.requests.queries[op.index % inputs.requests.queries.len()];
                request(&mut client, &RequestFrame::Query(query.clone())).map(|lines| {
                    if op.index % every == 0 {
                        answers.queries.push((op.index, lines));
                    }
                })
            }
            Kind::Resolve => {
                let probe = &inputs.requests.probes[op.index % inputs.requests.probes.len()];
                let frame = RequestFrame::Resolve {
                    name: probe.name.clone(),
                    k: Some(RESOLVE_K as u32),
                    min: None,
                };
                request(&mut client, &frame).map(|lines| {
                    if op.index % every == 0 {
                        answers.resolves.push((op.index, lines));
                    }
                })
            }
            Kind::Add => client.add(&inputs.corpus.arrival(op.index)).map(|_| ()),
        };
        let done = start.elapsed();
        if let Err(e) = &ok {
            // The kind only: a server message may echo a name.
            let what = if e.is_server() {
                "refused by the server"
            } else {
                "transport error"
            };
            eprintln!("perfbench: {:?} request failed: {what}", op.kind);
            if e.is_transport() {
                if let Ok(fresh) = connect(addr, Protocol::Binary) {
                    client = fresh;
                }
            }
        }
        outcomes.push(Outcome {
            op: *op,
            sent,
            done,
            ok: ok.is_ok(),
        });
    }
    (outcomes, answers)
}

/// One request, answered by its rendered data lines. Reads are kept in
/// the server's own rendering, not the client's parse of it: a `CAND`
/// line carries a multi-word name unescaped, which `Client::resolve`
/// cuts at the first space.
fn request(client: &mut Client, frame: &RequestFrame) -> Result<Vec<String>, ClientError> {
    let mut pipe = client.pipeline(1);
    pipe.push(frame)?;
    let reply = pipe
        .flush()?
        .pop()
        .ok_or_else(|| ClientError::Protocol("no reply".to_owned()))?;
    Ok(reply.block()?.1)
}
