//! The serving half of a workload: the trained snapshot served in-process
//! on loopback under an open-loop load.
//!
//! Load comes from a few generator threads, one connection each. Every
//! request has a due time fixed in advance; a generator sends it at (or,
//! when the previous request is still outstanding, after) that time, and
//! its latency runs from when it was due, so a stall is charged to every
//! request it delays. How late each send was is recorded too. The offered
//! rate steps through a fixed ladder; a closed-loop step after it, where
//! each generator sends as soon as its previous request is answered,
//! measures what the connections get through.
//!
//! The same scheduler drives three executors, so the layers can be told
//! apart: the TCP client (the whole path), an in-process `Batcher`
//! submitter (queue + batching window + engine), and direct `Engine`
//! calls (forward, cache, kNN).

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use edsr_cl::checkpoint::ServeSnapshot;
use edsr_linalg::knn::{KnnQuery, Metric, Neighbor};
use edsr_serve::{
    serve, Batcher, Client, Engine, RetryPolicy, ServeError, ServeHandle, ServerConfig, StatsReply,
    Submitter, WireMetric,
};
use edsr_tensor::rng::seeded;
use edsr_tensor::Matrix;
use rand::rngs::StdRng;

use crate::stats::{self, median, Pct};

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Embed row `input` of the input matrix (task 0).
    Embed(usize),
    /// kNN over the replay memory for row `query` of the query matrix.
    Knn(usize),
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    /// Seconds after the step's origin at which it is due.
    pub due: f64,
    /// The operation.
    pub op: Op,
}

/// A served answer, kept for the output check.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// An embedding.
    Embedding(Vec<f32>),
    /// kNN hits as `(row, score)`.
    Neighbors(Vec<(u64, f32)>),
}

/// One executed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The request.
    pub req: Req,
    /// Seconds after the origin it was sent.
    pub sent: f64,
    /// Seconds after the origin it was answered.
    pub done: f64,
    /// The answer, or why there was none.
    pub answer: Result<Answer, String>,
}

impl Record {
    /// Latency from the due time, µs.
    pub fn latency_us(&self) -> f64 {
        (self.done - self.req.due) * 1e6
    }
    /// How late the send was, ms.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.req.due).max(0.0) * 1e3
    }
}

/// Something that answers requests (one per generator thread).
pub trait Exec {
    /// Answers `op`.
    fn run(&mut self, op: Op) -> Result<Answer, String>;
}

/// Runs each schedule on its own thread with its own executor, open
/// loop: request `i` is sent at its due time or as soon as request `i-1`
/// is answered, whichever is later. Returns the records per schedule.
pub fn drive<E: Exec + Send>(execs: Vec<E>, schedules: &[Vec<Req>]) -> Vec<Vec<Record>> {
    assert_eq!(execs.len(), schedules.len(), "one executor per schedule");
    // A short lead so every thread is waiting before the first due time.
    let origin = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let handles: Vec<_> = execs
            .into_iter()
            .zip(schedules)
            .map(|(mut exec, sched)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(sched.len());
                    for &req in sched {
                        let due = origin + Duration::from_secs_f64(req.due);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = secs_since(origin);
                        let answer = exec.run(req.op);
                        let done = secs_since(origin);
                        out.push(Record {
                            req,
                            sent,
                            done,
                            answer,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

fn secs_since(origin: Instant) -> f64 {
    let now = Instant::now();
    if now >= origin {
        (now - origin).as_secs_f64()
    } else {
        -(origin - now).as_secs_f64()
    }
}

/// The request mix, as shares of all requests; the rest are embeds of
/// inputs never sent before (cache misses).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Embeds that re-send an input this pass's server already embedded
    /// (cache hits).
    pub repeat: f64,
    /// kNN queries (these bypass the batcher).
    pub knn: f64,
}

/// One rung of the rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Label (`low`, `high`, …).
    pub name: &'static str,
    /// Offered rate over all generators, requests/s.
    pub rate: f64,
    /// Share of the run's `--seconds` spent on this rung.
    pub share: f64,
}

/// The closed-loop step after the ladder: every request is due at once,
/// so each generator sends its next request as soon as the previous one
/// is answered.
pub const CLOSED: Rung = Rung {
    name: "closed",
    rate: 0.0,
    share: 0.0,
};

/// What the serving half runs.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Generator threads, one connection each.
    pub generators: usize,
    /// The rate ladder, lowest first. The first rung is `low`, the last
    /// `high`.
    pub ladder: Vec<Rung>,
    /// Request mix.
    pub mix: Mix,
    /// Times the ladder is climbed per run. Each rung's percentiles are
    /// read per pass and the median over passes is reported, so a host
    /// stall that hits one pass does not set the run's figure.
    pub passes: usize,
}

/// Embed rows `0..WARM` warm each server before its pass.
pub const WARM: usize = 8;
/// Neighbours per kNN query.
pub const K: usize = 5;
/// Embedding-cache capacity (the CLI's default).
pub const CACHE: usize = 1024;
/// The tail percentile held to the limit.
pub const TAIL: f64 = 90.0;
/// Embed latency limit on the [`TAIL`] percentile, µs. Above the 5–15 ms
/// scheduling stalls of a shared 2-core host, so that what fails a rung
/// is a backlog, not a stall.
pub const LIMIT_US: f64 = 20_000.0;

/// The inputs every executor sees: embed rows (warm-up rows first) and
/// kNN queries, all seeded.
pub struct Inputs {
    /// Embed inputs; rows `0..WARM` are the warm-up rows.
    pub embed: Matrix,
    /// kNN queries in representation space.
    pub queries: Matrix,
    /// Per pass, per rung, per generator.
    pub schedules: Vec<Vec<Vec<Vec<Req>>>>,
    /// Per pass, per generator: the closed-loop step.
    pub closed: Vec<Vec<Vec<Req>>>,
}

/// Seeded request generation, shared by every step of every pass.
struct Gen {
    rng: StdRng,
    generators: usize,
    mix: Mix,
    /// Embed rows made so far.
    rows: usize,
    /// kNN queries made so far.
    queries: usize,
}

impl Gen {
    /// `total` requests spread over the generators (interleaved), due at
    /// `rate` (0: all due at once). The step holds exactly its mix's share
    /// of each request kind, in a seeded order. `sent` lists the rows the
    /// pass's server has embedded so far, warm-up rows first; a repeated
    /// embed re-sends the one halfway down that list, as `serve_load`
    /// re-sends row `i / 2`.
    fn step(&mut self, total: usize, rate: f64, sent: &mut Vec<usize>) -> Vec<Vec<Req>> {
        let n_knn = (total as f64 * self.mix.knn).round() as usize;
        let n_repeat = (total as f64 * self.mix.repeat).round() as usize;
        // 0 = fresh embed, 1 = repeated embed, 2 = kNN.
        let mut kinds: Vec<u8> = (0..total)
            .map(|i| match i {
                _ if i < n_knn => 2,
                _ if i < n_knn + n_repeat => 1,
                _ => 0,
            })
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, (self.rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut per_gen = vec![Vec::new(); self.generators];
        for (i, kind) in kinds.into_iter().enumerate() {
            let op = match kind {
                0 => {
                    self.rows += 1;
                    sent.push(self.rows - 1);
                    Op::Embed(self.rows - 1)
                }
                1 => Op::Embed(sent[sent.len() / 2]),
                _ => {
                    self.queries += 1;
                    Op::Knn(self.queries - 1)
                }
            };
            let due = if rate > 0.0 { i as f64 / rate } else { 0.0 };
            per_gen[i % self.generators].push(Req { due, op });
        }
        per_gen
    }
}

/// Builds the seeded schedules: the ladder `passes` times over, each rung
/// with paced arrivals per generator (staggered so the generators
/// interleave), then per pass a closed-loop step with as many requests as
/// the pass's `high` rung. Every step holds exactly its mix's share of
/// each request kind, so every run has the same sample counts behind its
/// percentiles.
pub fn make_inputs(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    in_dim: usize,
    repr_dim: usize,
) -> Inputs {
    let mut gen = Gen {
        rng: seeded(seed ^ 0x5E7E_0000),
        generators: spec.generators,
        mix: spec.mix,
        rows: WARM,
        queries: 0,
    };
    let mut schedules = Vec::new();
    let mut closed = Vec::new();
    for _ in 0..spec.passes {
        // Each pass has a server of its own, with an empty cache.
        let mut sent: Vec<usize> = (0..WARM).collect();
        let mut pass = Vec::new();
        let mut last = 0;
        for rung in &spec.ladder {
            let per_pass = rung.rate * rung.share * seconds / spec.passes as f64;
            last = per_pass.round().max(spec.generators as f64) as usize;
            pass.push(gen.step(last, rung.rate, &mut sent));
        }
        closed.push(gen.step(last, 0.0, &mut sent));
        schedules.push(pass);
    }
    Inputs {
        embed: Matrix::randn(gen.rows, in_dim, 1.0, &mut gen.rng),
        queries: Matrix::randn(gen.queries.max(1), repr_dim, 1.0, &mut gen.rng),
        schedules,
        closed,
    }
}

// ---------------------------------------------------------------------------
// Executors.

/// The whole path: a TCP client on its own connection.
pub struct ClientExec<'a> {
    addr: SocketAddr,
    client: Option<Client>,
    inputs: &'a Inputs,
    k: u32,
}

impl<'a> ClientExec<'a> {
    /// Connects without retries (a failure is a failed request).
    pub fn connect(addr: SocketAddr, inputs: &'a Inputs, k: usize) -> Result<Self, ServeError> {
        Ok(Self {
            addr,
            client: Some(Client::connect_with(addr, RetryPolicy::none())?),
            inputs,
            k: k as u32,
        })
    }
}

impl Exec for ClientExec<'_> {
    fn run(&mut self, op: Op) -> Result<Answer, String> {
        if self.client.is_none() {
            self.client = Client::connect_with(self.addr, RetryPolicy::none()).ok();
        }
        let client = self.client.as_mut().ok_or("not connected")?;
        let res = match op {
            Op::Embed(i) => client
                .embed(0, self.inputs.embed.row(i))
                .map(Answer::Embedding),
            Op::Knn(q) => client
                .knn(self.inputs.queries.row(q), self.k, WireMetric::Cosine)
                .map(|ns| Answer::Neighbors(ns.iter().map(|n| (n.index, n.score)).collect())),
        };
        res.map_err(|e| {
            if matches!(
                e,
                ServeError::Io(_) | ServeError::ServerClosed | ServeError::Protocol(_)
            ) {
                self.client = None;
            }
            e.to_string()
        })
    }
}

/// Queue, batching window and engine: an in-process batcher submitter;
/// kNN goes straight to the engine under its lock, as on the server.
pub struct BatcherExec<'a> {
    batcher: &'a Batcher,
    submitter: Submitter,
    inputs: &'a Inputs,
    k: usize,
    input: Vec<f32>,
}

impl<'a> BatcherExec<'a> {
    /// A submitter of `batcher`.
    pub fn new(batcher: &'a Batcher, inputs: &'a Inputs, k: usize) -> Self {
        Self {
            batcher,
            submitter: batcher.submitter(),
            inputs,
            k,
            input: Vec::new(),
        }
    }
}

impl Exec for BatcherExec<'_> {
    fn run(&mut self, op: Op) -> Result<Answer, String> {
        match op {
            Op::Embed(i) => {
                self.input.clear();
                self.input.extend_from_slice(self.inputs.embed.row(i));
                let mut out = Vec::new();
                self.submitter
                    .embed(0, &mut self.input, &mut out)
                    .map_err(|e| e.to_string())?;
                Ok(Answer::Embedding(out))
            }
            Op::Knn(q) => {
                let mut out = Vec::new();
                let query = self.inputs.queries.row(q);
                self.batcher
                    .with_engine(|e| e.knn_into(query, self.k, Metric::Cosine, &mut out))?;
                Ok(neighbors(&out))
            }
        }
    }
}

fn neighbors(ns: &[Neighbor]) -> Answer {
    Answer::Neighbors(ns.iter().map(|n| (n.index as u64, n.score)).collect())
}

/// Direct engine calls, one at a time.
pub struct EngineExec<'a> {
    engine: &'a Mutex<Engine>,
    inputs: &'a Inputs,
    k: usize,
}

impl Exec for EngineExec<'_> {
    fn run(&mut self, op: Op) -> Result<Answer, String> {
        let mut engine = self
            .engine
            .lock()
            .expect("engine lock poisoned by a panicking replay");
        match op {
            Op::Embed(i) => {
                let mut out = Vec::new();
                engine.embed_into(0, self.inputs.embed.row(i), &mut out)?;
                Ok(Answer::Embedding(out))
            }
            Op::Knn(q) => {
                let mut out = Vec::new();
                engine.knn_into(self.inputs.queries.row(q), self.k, Metric::Cosine, &mut out)?;
                Ok(neighbors(&out))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Checking and summarising.

/// The in-process reference answers: `represent_eval` bits for every
/// embed input and `KnnQuery` hits for every query.
pub struct Oracle {
    embeds: Matrix,
    knn: Vec<Vec<(u64, f32)>>,
}

impl Oracle {
    /// Computes every expected answer from the snapshot.
    pub fn new(snapshot: &ServeSnapshot, inputs: &Inputs, k: usize) -> Self {
        let model = snapshot.restore_model().expect("restore snapshot model");
        let embeds = model.represent_eval(&inputs.embed, 0);
        let query = KnnQuery::new(&snapshot.memory_reprs, k).metric(Metric::Cosine);
        let knn = (0..inputs.queries.rows())
            .map(|q| {
                query
                    .search(inputs.queries.row(q))
                    .iter()
                    .map(|n| (n.index as u64, n.score))
                    .collect()
            })
            .collect();
        Self { embeds, knn }
    }

    /// True when `answer` is bit-identical to the reference for `op`.
    pub fn matches(&self, op: Op, answer: &Answer) -> bool {
        match (op, answer) {
            (Op::Embed(i), Answer::Embedding(v)) => {
                let want = self.embeds.row(i);
                v.len() == want.len() && v.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
            }
            (Op::Knn(q), Answer::Neighbors(ns)) => {
                let want = &self.knn[q];
                ns.len() == want.len()
                    && ns
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
            }
            _ => false,
        }
    }
}

/// One rung's summary.
#[derive(Debug, Clone)]
pub struct RungResult {
    /// Rung label.
    pub name: &'static str,
    /// Offered rate, req/s.
    pub rate: f64,
    /// Requests attempted / answered correctly / failed (error, shed or
    /// wrong answer).
    pub attempted: usize,
    /// Requests answered with the reference bits.
    pub succeeded: usize,
    /// Requests that errored, were shed, or answered wrongly.
    pub failed: usize,
    /// Answers whose bits differ from the in-process reference.
    pub wrong: usize,
    /// Embed latencies from due time, µs, ascending (failures = ∞).
    pub embed_us: Vec<f64>,
    /// kNN latencies from due time, µs, ascending (failures = ∞).
    pub knn_us: Vec<f64>,
    /// How late each send was, ms, ascending.
    pub late_ms: Vec<f64>,
    /// Lateness over the rung's last quarter (by due time), ms: the
    /// tail percentile. A backlog that keeps growing shows here.
    pub late_end_ms: f64,
    /// Answered requests per second of the rung's span.
    pub achieved_rps: f64,
    /// Tail embed latency within the limit, nothing failed, lateness not
    /// growing.
    pub meets_limit: bool,
}

impl RungResult {
    /// Embed latency percentile `p`, µs.
    pub fn embed(&self, p: f64) -> Pct {
        stats::pct(&self.embed_us, p)
    }
    /// kNN latency percentile `p`, µs.
    pub fn knn(&self, p: f64) -> Pct {
        stats::pct(&self.knn_us, p)
    }
    /// Send lateness percentile `p`, ms.
    pub fn late(&self, p: f64) -> Pct {
        stats::pct(&self.late_ms, p)
    }
}

/// Summarises one rung's records (all generators), checking every
/// answer against the oracle.
/// The rung meets the limit when its [`TAIL`] percentile of embed latency
/// and of the last quarter's send lateness stay within [`LIMIT_US`] and
/// nothing failed.
pub fn summarise(rung: &Rung, records: &[Vec<Record>], oracle: Option<&Oracle>) -> RungResult {
    let all: Vec<&Record> = records.iter().flatten().collect();
    let mut embed = Vec::new();
    let mut knn = Vec::new();
    let mut failed = 0;
    let mut wrong = 0;
    for r in &all {
        let ok = match &r.answer {
            Ok(a) if oracle.is_none_or(|o| o.matches(r.req.op, a)) => true,
            Ok(_) => {
                eprintln!("check failed: {:?} answered with bits that differ from the in-process reference", r.req.op);
                wrong += 1;
                false
            }
            Err(_) => false,
        };
        if !ok {
            failed += 1;
        }
        let lat = if ok { r.latency_us() } else { f64::INFINITY };
        match r.req.op {
            Op::Embed(_) => embed.push(lat),
            Op::Knn(_) => knn.push(lat),
        }
    }
    let embed_us = stats::sorted(embed);
    let knn_us = stats::sorted(knn);
    let late_ms = stats::sorted(all.iter().map(|r| r.late_ms()).collect());
    let mut by_due: Vec<&Record> = all.clone();
    by_due.sort_by(|a, b| a.req.due.total_cmp(&b.req.due));
    let end = &by_due[by_due.len() * 3 / 4..];
    let late_end_ms = stats::pct(
        &stats::sorted(end.iter().map(|r| r.late_ms()).collect()),
        TAIL,
    )
    .value;
    let first = by_due.first().map_or(0.0, |r| r.req.due);
    let last = all.iter().map(|r| r.done).fold(0.0, f64::max);
    let succeeded = all.len() - failed;
    let meets_limit = failed == 0
        && stats::pct(&embed_us, TAIL).value <= LIMIT_US
        && late_end_ms * 1e3 <= LIMIT_US;
    RungResult {
        name: rung.name,
        rate: rung.rate,
        attempted: all.len(),
        succeeded,
        failed,
        wrong,
        embed_us,
        knn_us,
        late_ms,
        late_end_ms,
        achieved_rps: succeeded as f64 / (last - first).max(1e-9),
        meets_limit,
    }
}

/// One rung over all passes.
#[derive(Debug, Clone)]
pub struct RungAgg {
    /// Each pass's summary, in order.
    pub passes: Vec<RungResult>,
    /// All passes' records in one summary (counts, pooled percentiles).
    pub pooled: RungResult,
}

impl RungAgg {
    /// Median over passes of embed latency percentile `p`, µs.
    pub fn embed(&self, p: f64) -> f64 {
        median(
            &self
                .passes
                .iter()
                .map(|r| r.embed(p).value)
                .collect::<Vec<_>>(),
        )
    }
    /// Median over passes of kNN latency percentile `p`, µs.
    pub fn knn(&self, p: f64) -> f64 {
        median(
            &self
                .passes
                .iter()
                .map(|r| r.knn(p).value)
                .collect::<Vec<_>>(),
        )
    }
}

/// Everything the serving half measured.
pub struct ServeOutcome {
    /// Server set-up times, one per pass (snapshot encode/decode, engine
    /// restore, server start), s.
    pub setup_s: Vec<f64>,
    /// Per rung, lowest first.
    pub rungs: Vec<RungAgg>,
    /// The server's own counters, summed over passes.
    pub stats: StatsReply,
    /// Per pass, the achieved rate of the highest rung meeting the limit
    /// (0 when none does).
    pub max_rate_rps: Vec<f64>,
    /// Per pass, the closed-loop step; its `achieved_rps` is what the
    /// generators' connections get through when nothing waits for a due
    /// time.
    pub closed: Vec<RungResult>,
    /// The generated inputs (replayed for the layer split).
    pub inputs: Inputs,
    /// The reference answers.
    pub oracle: Oracle,
}

fn start_server(snapshot: &ServeSnapshot, cache: usize) -> ServeHandle {
    let snap = ServeSnapshot::decode(&snapshot.encode()).expect("snapshot round trip");
    let engine = Engine::from_snapshot(snap, cache).expect("engine restore");
    serve(engine, ("127.0.0.1", 0), ServerConfig::default()).expect("server start")
}

fn stop_server(handle: ServeHandle) -> StatsReply {
    let mut client = Client::connect_with(handle.addr(), RetryPolicy::none()).expect("connect");
    let stats = client.stats().expect("stats");
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join().expect("server join");
    stats
}

fn warm<E: Exec>(exec: &mut E) {
    for i in 0..WARM {
        let _ = exec.run(Op::Embed(i));
    }
    let _ = exec.run(Op::Knn(0));
}

/// One rung of one pass: its summary and its records.
type RungRun = (RungResult, Vec<Vec<Record>>);

/// Climbs one pass of the ladder with fresh executors per rung.
fn climb<E: Exec + Send>(
    spec: &ServeSpec,
    pass: &[Vec<Vec<Req>>],
    oracle: &Oracle,
    mut execs: impl FnMut() -> Vec<E>,
) -> Vec<RungRun> {
    spec.ladder
        .iter()
        .zip(pass)
        .map(|(rung, sched)| {
            let records = drive(execs(), sched);
            (summarise(rung, &records, Some(oracle)), records)
        })
        .collect()
}

/// Gathers each rung's per-pass summaries and pools its records.
fn aggregate(spec: &ServeSpec, passes: Vec<Vec<RungRun>>) -> Vec<RungAgg> {
    let mut per_rung: Vec<(Vec<RungResult>, Vec<Vec<Record>>)> =
        vec![Default::default(); spec.ladder.len()];
    for pass in passes {
        for ((result, records), slot) in pass.into_iter().zip(&mut per_rung) {
            slot.0.push(result);
            slot.1.extend(records);
        }
    }
    spec.ladder
        .iter()
        .zip(per_rung)
        .map(|(rung, (passes, records))| RungAgg {
            pooled: summarise(rung, &records, None),
            passes,
        })
        .collect()
}

/// The serving half, one pass at a time so the caller can spread passes
/// over the run. Each pass starts a server from the snapshot (timed as
/// set-up), warms it with the warm-up rows, climbs the ladder and runs the
/// closed-loop step through the TCP client, and shuts the server down.
pub struct Session<'a> {
    spec: &'a ServeSpec,
    snapshot: &'a ServeSnapshot,
    inputs: Inputs,
    oracle: Oracle,
    setup_s: Vec<f64>,
    passes: Vec<Vec<RungRun>>,
    closed: Vec<RungResult>,
    stats: StatsReply,
}

impl<'a> Session<'a> {
    /// Generates the seeded inputs and the reference answers.
    pub fn new(spec: &'a ServeSpec, snapshot: &'a ServeSnapshot, seed: u64, seconds: f64) -> Self {
        let in_dim = snapshot
            .restore_model()
            .expect("restore")
            .config()
            .input_dims[0];
        let repr_dim = snapshot.memory_reprs.cols();
        let inputs = make_inputs(spec, seed, seconds, in_dim, repr_dim);
        let oracle = Oracle::new(snapshot, &inputs, K);
        Self {
            spec,
            snapshot,
            inputs,
            oracle,
            setup_s: Vec::new(),
            passes: Vec::new(),
            closed: Vec::new(),
            stats: StatsReply::default(),
        }
    }

    /// Passes still to run.
    pub fn remaining(&self) -> usize {
        self.spec.passes - self.passes.len()
    }

    /// Runs the next pass: the ladder, then the closed-loop step.
    pub fn pass(&mut self) {
        let spec = self.spec;
        let t0 = Instant::now();
        let handle = start_server(self.snapshot, CACHE);
        self.setup_s.push(t0.elapsed().as_secs_f64());
        let addr = handle.addr();
        let inputs = &self.inputs;
        warm(&mut ClientExec::connect(addr, inputs, K).expect("connect"));
        let execs = || -> Vec<ClientExec> {
            (0..spec.generators)
                .map(|_| ClientExec::connect(addr, inputs, K).expect("connect"))
                .collect()
        };
        let p = self.passes.len();
        let result = climb(spec, &inputs.schedules[p], &self.oracle, execs);
        self.passes.push(result);
        let records = drive(execs(), &inputs.closed[p]);
        self.closed
            .push(summarise(&CLOSED, &records, Some(&self.oracle)));
        let st = stop_server(handle);
        let sum = &mut self.stats;
        sum.requests += st.requests;
        sum.batches += st.batches;
        sum.batched_requests += st.batched_requests;
        sum.max_batch = sum.max_batch.max(st.max_batch);
        sum.cache_hits += st.cache_hits;
        sum.cache_misses += st.cache_misses;
        sum.rejected_deadline += st.rejected_deadline;
        sum.rejected_overload += st.rejected_overload;
    }

    /// Runs any passes left and summarises them all.
    pub fn finish(mut self) -> ServeOutcome {
        while self.remaining() > 0 {
            self.pass();
        }
        let max_rate_rps = self
            .passes
            .iter()
            .map(|pass| {
                pass.iter()
                    .rev()
                    .map(|r| &r.0)
                    .find(|r| r.meets_limit)
                    .map_or(0.0, |r| r.achieved_rps)
            })
            .collect();
        ServeOutcome {
            setup_s: self.setup_s,
            rungs: aggregate(self.spec, self.passes),
            stats: self.stats,
            max_rate_rps,
            closed: self.closed,
            inputs: self.inputs,
            oracle: self.oracle,
        }
    }
}

/// Per-layer latencies on the high rung's schedules, from the batcher
/// and the bare engine.
pub struct LayerSplit {
    /// Batcher submitter, open loop: embed median (median over passes).
    pub batcher_embed_p50: f64,
    /// Batcher embed p99 over all passes (or the highest percentile the
    /// sample supports).
    pub batcher_embed_tail: Pct,
    /// Engine, back to back: embed median.
    pub engine_embed_p50: Pct,
    /// Engine embed p99 (or the highest percentile the sample supports).
    pub engine_embed_tail: Pct,
    /// Engine kNN median.
    pub engine_knn_p50: Pct,
    /// Failed or wrong answers across both replays.
    pub failed: usize,
    /// Wrong answers across both replays.
    pub wrong: usize,
    /// Requests replayed across both.
    pub attempted: usize,
}

/// Replays the high rung of every pass through an in-process batcher
/// (open loop, same schedules), then request by request through a bare
/// engine.
pub fn layer_split(
    spec: &ServeSpec,
    snapshot: &ServeSnapshot,
    outcome: &ServeOutcome,
) -> LayerSplit {
    let inputs = &outcome.inputs;
    let oracle = &outcome.oracle;
    let high_only = ServeSpec {
        ladder: vec![*spec.ladder.last().expect("ladder")],
        ..spec.clone()
    };
    let highs: Vec<Vec<Vec<Vec<Req>>>> = inputs
        .schedules
        .iter()
        .map(|pass| vec![pass.last().expect("rung").clone()])
        .collect();

    let engine = Engine::from_snapshot(snapshot.clone(), CACHE).expect("engine");
    let batcher = Batcher::with_config(engine, &ServerConfig::default());
    warm(&mut BatcherExec::new(&batcher, inputs, K));
    let passes = highs
        .iter()
        .map(|pass| {
            climb(&high_only, pass, oracle, || {
                (0..spec.generators)
                    .map(|_| BatcherExec::new(&batcher, inputs, K))
                    .collect()
            })
        })
        .collect();
    let batched = aggregate(&high_only, passes).remove(0);
    drop(batcher);

    let engine = Mutex::new(Engine::from_snapshot(snapshot.clone(), CACHE).expect("engine"));
    let mut exec = EngineExec {
        engine: &engine,
        inputs,
        k: K,
    };
    warm(&mut exec);
    let mut embed = Vec::new();
    let mut knn = Vec::new();
    let mut wrong = 0;
    let mut attempted = 0;
    for pass in &highs {
        let mut merged: Vec<Req> = pass[0].iter().flatten().copied().collect();
        merged.sort_by(|a, b| a.due.total_cmp(&b.due));
        for req in &merged {
            let t0 = Instant::now();
            let answer = exec.run(req.op);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            attempted += 1;
            if !answer.is_ok_and(|a| oracle.matches(req.op, &a)) {
                eprintln!(
                    "check failed: engine answer to {:?} differs from the in-process reference",
                    req.op
                );
                wrong += 1;
            }
            match req.op {
                Op::Embed(_) => embed.push(us),
                Op::Knn(_) => knn.push(us),
            }
        }
    }
    let embed = stats::sorted(embed);
    let knn = stats::sorted(knn);
    let failed: usize = batched.passes.iter().map(|r| r.failed).sum();
    let batched_wrong: usize = batched.passes.iter().map(|r| r.wrong).sum();
    LayerSplit {
        batcher_embed_p50: batched.embed(50.0),
        batcher_embed_tail: batched.pooled.embed(99.0),
        engine_embed_p50: stats::pct(&embed, 50.0),
        engine_embed_tail: stats::pct(&embed, 99.0),
        engine_knn_p50: stats::pct(&knn, 50.0),
        failed: wrong + failed,
        wrong: wrong + batched_wrong,
        attempted: attempted + batched.pooled.attempted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers instantly except that the first request stalls.
    struct Stall {
        first: bool,
        stall: Duration,
    }

    impl Exec for Stall {
        fn run(&mut self, _op: Op) -> Result<Answer, String> {
            if std::mem::take(&mut self.first) {
                std::thread::sleep(self.stall);
            }
            Ok(Answer::Embedding(Vec::new()))
        }
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        // Five requests due 2 ms apart; the first stalls 20 ms. The ones
        // queued behind it are charged the wait they were made to do.
        let sched: Vec<Req> = (0..5)
            .map(|i| Req {
                due: f64::from(i) * 0.002,
                op: Op::Embed(0),
            })
            .collect();
        let stall = Stall {
            first: true,
            stall: Duration::from_millis(20),
        };
        let recs = drive(vec![stall], &[sched]).remove(0);
        assert_eq!(recs.len(), 5);
        assert!(recs[0].latency_us() >= 20_000.0);
        for (i, r) in recs.iter().enumerate().skip(1) {
            // Sent only after the stall ended: late by ~(20 − 2i) ms, and
            // the latency from due includes that lateness.
            let expect_late_ms = 20.0 - 2.0 * i as f64;
            assert!(
                r.late_ms() >= expect_late_ms - 0.5,
                "req {i} late {}",
                r.late_ms()
            );
            assert!(r.latency_us() >= r.late_ms() * 1e3);
            assert!(r.sent >= recs[0].done);
        }
    }

    #[test]
    fn on_time_requests_wait_for_their_due_time() {
        let sched: Vec<Req> = (0..3)
            .map(|i| Req {
                due: f64::from(i) * 0.005,
                op: Op::Knn(0),
            })
            .collect();
        let exec = Stall {
            first: false,
            stall: Duration::ZERO,
        };
        let recs = drive(vec![exec], &[sched]).remove(0);
        for r in &recs {
            assert!(r.sent >= r.req.due);
            assert!(r.late_ms() < 5.0);
        }
    }

    #[test]
    fn schedules_follow_rate_and_mix() {
        let spec = ServeSpec {
            generators: 2,
            ladder: vec![Rung {
                name: "low",
                rate: 1000.0,
                share: 1.0,
            }],
            mix: Mix {
                repeat: 0.25,
                knn: 0.25,
            },
            passes: 1,
        };
        let a = make_inputs(&spec, 3, 2.0, 4, 3);
        let b = make_inputs(&spec, 3, 2.0, 4, 3);
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.closed, b.closed);
        let mut reqs: Vec<Req> = a.schedules[0][0].iter().flatten().copied().collect();
        assert_eq!(reqs.len(), 2000);
        // Generators interleave: together they offer the rung's rate.
        assert!((a.schedules[0][0][1][0].due - 0.001).abs() < 1e-12);
        let knn = reqs.iter().filter(|r| matches!(r.op, Op::Knn(_))).count();
        assert_eq!(knn, 500);
        // The closed-loop step has the high rung's count, all due at once.
        let closed: Vec<Req> = a.closed[0].iter().flatten().copied().collect();
        assert_eq!(closed.len(), 2000);
        assert!(closed.iter().all(|r| r.due == 0.0));
        // In send order, a repeat re-sends a row already embedded (a
        // warm-up row or an earlier fresh one); fresh rows never repeat.
        reqs.sort_by(|x, y| x.due.total_cmp(&y.due));
        let mut seen: Vec<usize> = (0..WARM).collect();
        let (mut fresh, mut repeats) = (0, 0);
        for r in &reqs {
            if let Op::Embed(i) = r.op {
                if seen.contains(&i) {
                    repeats += 1;
                } else {
                    fresh += 1;
                    seen.push(i);
                }
            }
        }
        assert_eq!((fresh, repeats), (1000, 500));
    }

    #[test]
    fn failures_miss_the_limit() {
        let rung = Rung {
            name: "r",
            rate: 100.0,
            share: 1.0,
        };
        let mut recs: Vec<Record> = (0..50)
            .map(|i| Record {
                req: Req {
                    due: f64::from(i) * 0.01,
                    op: Op::Embed(0),
                },
                sent: f64::from(i) * 0.01,
                done: f64::from(i) * 0.01 + 0.0001,
                answer: Ok(Answer::Embedding(Vec::new())),
            })
            .collect();
        let ok = summarise(&rung, &[recs.clone()], None);
        assert!(ok.meets_limit && ok.failed == 0 && ok.attempted == 50);
        recs[10].answer = Err("overloaded".into());
        let bad = summarise(&rung, &[recs], None);
        assert_eq!((bad.failed, bad.succeeded), (1, 49));
        assert!(!bad.meets_limit);
    }
}
