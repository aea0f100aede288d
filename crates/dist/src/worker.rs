//! The worker: a full training replica driven by the parameter server.
//!
//! A worker builds the *entire* run locally from the Welcome's
//! [`DistSpec`] — data sequence, augmenters, model, method — exactly as
//! `edsr run` would, then enters a PULL loop. Every work item carries
//! the canonical parameter version and RNG position to start from, so
//! the worker holds no authoritative state: it can crash, reconnect,
//! and recompute any item bit-identically. Gradients are computed via
//! [`edsr_cl::compute_step_grads`] (a no-op optimizer captures them
//! without updating parameters) and shipped back with the post-step RNG
//! state; boundary ops (`begin_task`/`end_task`) run redundantly on
//! every worker and are cross-checked at a server barrier.
//!
//! For chaos testing, each connection attempt can be wrapped in an
//! `edsr-serve` [`FaultyStream`]: `WorkerOptions::chaos` holds one fault
//! plan per *attempt* (consumed in order, later attempts run clean), so
//! an injected disconnect cannot re-arm itself into a livelock.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use edsr_cl::{compute_step_grads, evaluate_cell, ContinualModel, Method, ModelConfig};
use edsr_data::{Augmenter, Dataset, TaskSequence};
use edsr_nn::io::params_to_bytes;
use edsr_nn::Workspace;
use edsr_serve::{FaultyStream, WireFaultPlan};
use edsr_tensor::rng::seeded;
use rand::rngs::StdRng;

use crate::codec::{decode_tensors, encode_tensors, tensor_bits};
use crate::protocol::{ParamsBlob, PushBody, Request, Response, WorkItem, DIST_PROTOCOL_VERSION};
use crate::spec::{build_method, preset_for, DistSpec};
use crate::DistError;

/// Worker behaviour knobs.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Fault plans, one per connection attempt (first connect uses
    /// `chaos[0]`, the reconnect after it `chaos[1]`, …). Attempts past
    /// the end of the list run on a clean stream.
    pub chaos: Vec<WireFaultPlan>,
    /// Give up after this many reconnects (0 uses the default of 64).
    pub max_reconnects: usize,
    /// Delay between reconnect attempts (0 uses the default of 20ms).
    pub reconnect_delay_ms: u64,
}

impl WorkerOptions {
    fn max_reconnects(&self) -> usize {
        if self.max_reconnects == 0 {
            64
        } else {
            self.max_reconnects
        }
    }

    fn reconnect_delay(&self) -> Duration {
        Duration::from_millis(if self.reconnect_delay_ms == 0 {
            20
        } else {
            self.reconnect_delay_ms
        })
    }
}

/// What a worker did over its lifetime.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Assigned worker id.
    pub worker_id: u32,
    /// Training steps computed (including superseded recomputations).
    pub steps: u64,
    /// Evaluation cells computed.
    pub eval_cells: u64,
    /// Boundary ops run.
    pub boundaries: u64,
    /// Reconnects performed.
    pub reconnects: u64,
    /// Last parameter version held.
    pub final_version: u64,
    /// Wire faults injected across all chaos-wrapped connections.
    pub faults_injected: u64,
}

/// One live connection, possibly wrapped in a fault injector.
enum Transport {
    Plain(TcpStream),
    Faulty(FaultyStream<TcpStream>),
}

impl Transport {
    fn injected(&self) -> u64 {
        match self {
            Transport::Plain(_) => 0,
            Transport::Faulty(s) => s.injected(),
        }
    }
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Plain(s) => s.read(buf),
            Transport::Faulty(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Transport::Plain(s) => s.write(buf),
            Transport::Faulty(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Transport::Plain(s) => s.flush(),
            Transport::Faulty(s) => s.flush(),
        }
    }
}

/// The replica a worker reconstructs from the Welcome spec. Built once
/// — method state accumulates across reconnects and must never reset.
struct Built {
    seq: TaskSequence,
    augmenters: Vec<Augmenter>,
    model: ContinualModel,
    method: Box<dyn Method>,
    ws: Workspace,
    spec: DistSpec,
}

fn build(spec: DistSpec) -> Result<Built, DistError> {
    let preset = preset_for(&spec).ok_or_else(|| {
        DistError::Failed(format!(
            "server spec names unknown preset {:?}",
            spec.preset
        ))
    })?;
    let (seq, augmenters) = preset.build_with_augmenters(&mut seeded(spec.seed));
    // Cross-increment shape validation through the structured try-variants:
    // a malformed spec/preset combination surfaces here as a DistError
    // instead of a panic deep inside an increment.
    let train_parts: Vec<&Dataset> = seq.tasks.iter().map(|t| &t.train).collect();
    Dataset::try_concat("spec-validation", &train_parts)
        .map_err(|e| DistError::Failed(format!("spec data validation: {e}")))?;
    let model = ContinualModel::new(
        &ModelConfig::image(preset.grid.dim()),
        &mut seeded(spec.seed + 1000),
    );
    let method = build_method(&spec, &preset).ok_or_else(|| {
        DistError::Failed(format!(
            "server spec names unknown method {:?}",
            spec.method
        ))
    })?;
    Ok(Built {
        seq,
        augmenters,
        model,
        method,
        ws: Workspace::new(),
        spec,
    })
}

/// Cached result of the last boundary op, keyed by barrier generation.
/// A boundary item re-pulled after a reconnect mid-barrier must not
/// re-run the op (method state already advanced); the cached report is
/// re-sent instead.
#[derive(Clone, Copy)]
struct BoundaryDone {
    gen: u64,
    rng: [u64; 4],
    state_crc: u32,
    params_crc: u32,
}

/// A process-unique, time-salted session token. Registration on the
/// server is keyed by it, so retrying a HELLO whose Welcome got lost
/// re-attaches instead of leaking a worker slot. Plays no part in any
/// training computation, so its entropy source cannot affect
/// determinism.
fn session_token() -> u64 {
    use std::sync::atomic::AtomicU64;
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let salt = (u64::from(std::process::id()) << 32) ^ COUNTER.fetch_add(1, Ordering::Relaxed);
    (nanos ^ salt.rotate_left(17)).max(1)
}

struct Worker {
    opts: WorkerOptions,
    built: Option<Built>,
    worker_id: u32,
    token: u64,
    held_version: u64,
    held_bits: Vec<Vec<u32>>,
    last_boundary: Option<BoundaryDone>,
    sparse_threshold: f32,
    poll_ms: u64,
    report: WorkerReport,
}

/// Errors that should trigger a reconnect rather than abort the worker:
/// socket failures, responses that failed their CRC, and server-side
/// `ERR_CORRUPT` rejections (the request was corrupted in flight and
/// never acted on).
fn transient(e: &DistError) -> bool {
    matches!(
        e,
        DistError::Io(_)
            | DistError::Protocol(_)
            | DistError::Rejected {
                code: crate::protocol::ERR_CORRUPT,
                ..
            }
    )
}

fn exchange(conn: &mut Transport, req: &Request) -> Result<Response, DistError> {
    edsr_wire::write_frame(conn, &req.encode()).map_err(frame_err)?;
    let mut buf = Vec::new();
    match edsr_wire::read_frame(conn, &mut buf).map_err(frame_err)? {
        true => {}
        false => {
            return Err(DistError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )))
        }
    }
    Response::decode(&buf).map_err(DistError::Protocol)
}

fn frame_err(e: edsr_wire::FrameError) -> DistError {
    match e {
        edsr_wire::FrameError::Io(io) => DistError::Io(io),
        other => DistError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            other.to_string(),
        )),
    }
}

/// Maps a server `Err` response to a `DistError`.
fn rejected(code: u16, message: String) -> DistError {
    DistError::Rejected { code, message }
}

impl Worker {
    fn connect(&mut self, addr: &str, attempt: usize) -> Result<Transport, DistError> {
        let stream = TcpStream::connect(addr).map_err(DistError::Io)?;
        let _ = stream.set_nodelay(true);
        // A stuck server should surface as an error, not a hang; the
        // server replies to every request promptly by design.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        Ok(match self.opts.chaos.get(attempt) {
            Some(plan) => Transport::Faulty(FaultyStream::new(stream, plan.clone())),
            None => Transport::Plain(stream),
        })
    }

    fn hello(&mut self, conn: &mut Transport) -> Result<(), DistError> {
        let resp = exchange(
            conn,
            &Request::Hello {
                proto: DIST_PROTOCOL_VERSION,
                token: self.token,
            },
        )?;
        match resp {
            Response::Welcome {
                worker,
                sparse_threshold,
                poll_ms,
                spec,
                ..
            } => {
                self.worker_id = worker;
                self.sparse_threshold = sparse_threshold;
                self.poll_ms = poll_ms.max(1);
                if self.built.is_none() {
                    self.built = Some(build(spec)?);
                }
                Ok(())
            }
            Response::Err { code, message } => Err(rejected(code, message)),
            other => Err(DistError::Failed(format!(
                "expected Welcome, got {other:?}"
            ))),
        }
    }

    /// Installs a parameter payload into the local model, maintaining
    /// the XOR baseline bits.
    fn apply_params(&mut self, blob: &ParamsBlob) -> Result<(), DistError> {
        let built = self.built.as_mut().expect("built before first pull");
        let ids: Vec<_> = built.model.params.ids().collect();
        let lens: Vec<usize> = ids
            .iter()
            .map(|id| built.model.params.value(*id).len())
            .collect();
        let decoded = match blob.base_version {
            Some(base) => {
                if base != self.held_version || self.held_bits.is_empty() {
                    return Err(DistError::Failed(format!(
                        "server sent a delta against version {base}, worker holds {}",
                        self.held_version
                    )));
                }
                decode_tensors(&blob.payload, Some(&self.held_bits), &lens)
            }
            None => decode_tensors(&blob.payload, None, &lens),
        }
        .map_err(|e| DistError::Failed(format!("parameter payload: {e}")))?;
        for (id, t) in ids.iter().zip(&decoded) {
            built
                .model
                .params
                .value_mut(*id)
                .data_mut()
                .copy_from_slice(t);
        }
        let slices: Vec<&[f32]> = decoded.iter().map(Vec::as_slice).collect();
        self.held_bits = tensor_bits(&slices);
        self.held_version = blob.version;
        self.report.final_version = blob.version;
        Ok(())
    }

    fn run_boundary(
        &mut self,
        task: usize,
        end: bool,
        gen: u64,
        params: &ParamsBlob,
        rng: [u64; 4],
    ) -> Result<BoundaryDone, DistError> {
        if let Some(done) = self.last_boundary {
            if done.gen == gen {
                return Ok(done); // op already ran; re-send the cached report
            }
        }
        self.apply_params(params)?;
        let built = self.built.as_mut().expect("built before first pull");
        let mut r = StdRng::from_state(rng);
        let task_data = &built.seq.tasks[task];
        if end {
            built.method.end_task(
                &mut built.model,
                task,
                &task_data.train,
                &built.augmenters[task],
                &mut r,
            );
        } else {
            built
                .method
                .begin_task(&mut built.model, task, &task_data.train, &mut r);
        }
        self.report.boundaries += 1;
        let state_crc = edsr_wire::crc32(&built.method.save_state().unwrap_or_default());
        let params_crc = edsr_wire::crc32(&params_to_bytes(&built.model.params));
        let done = BoundaryDone {
            gen,
            rng: r.state(),
            state_crc,
            params_crc,
        };
        self.last_boundary = Some(done);
        Ok(done)
    }

    fn barrier(&mut self, conn: &mut Transport, done: BoundaryDone) -> Result<(), DistError> {
        loop {
            let resp = exchange(
                conn,
                &Request::Barrier {
                    worker: self.worker_id,
                    gen: done.gen,
                    rng: done.rng,
                    state_crc: done.state_crc,
                    params_crc: done.params_crc,
                },
            )?;
            match resp {
                Response::Barrier { released: true, .. } => return Ok(()),
                Response::Barrier {
                    released: false,
                    poll_ms,
                } => std::thread::sleep(Duration::from_millis(poll_ms.max(1))),
                Response::Err { code, message } => return Err(rejected(code, message)),
                other => {
                    return Err(DistError::Failed(format!(
                        "expected Barrier, got {other:?}"
                    )))
                }
            }
        }
    }

    fn run_step(
        &mut self,
        task: usize,
        lr: f32,
        batch: &[u32],
        params: &ParamsBlob,
        rng: [u64; 4],
    ) -> Result<PushBody, DistError> {
        self.apply_params(params)?;
        let built = self.built.as_mut().expect("built before first pull");
        let mut r = StdRng::from_state(rng);
        let idx: Vec<usize> = batch.iter().map(|&i| i as usize).collect();
        let batch_m = built.seq.tasks[task].train.inputs.select_rows(&idx);
        let loss = compute_step_grads(
            built.method.as_mut(),
            &mut built.model,
            &built.augmenters,
            &batch_m,
            task,
            lr,
            &mut built.ws,
            &mut r,
        );
        self.report.steps += 1;
        // Non-finite losses short-circuit before gradients are written;
        // ship an empty payload — the server fails the run on the loss
        // value before it would look at the gradients.
        let grads = if loss.is_finite() {
            let ids: Vec<_> = built.model.params.ids().collect();
            let tensors: Vec<&[f32]> = ids
                .iter()
                .map(|id| built.model.params.grad(*id).data())
                .collect();
            encode_tensors(&tensors, None, self.sparse_threshold)
                .map_err(|e| DistError::Failed(format!("gradient encode: {e}")))?
        } else {
            encode_tensors(&[], None, self.sparse_threshold)
                .map_err(|e| DistError::Failed(format!("gradient encode: {e}")))?
        };
        Ok(PushBody::Grads {
            version: params.version,
            shard: 0,
            shards: 1,
            loss,
            rng: r.state(),
            grads,
        })
    }

    fn run_eval(
        &mut self,
        task: usize,
        col: usize,
        params: &ParamsBlob,
    ) -> Result<PushBody, DistError> {
        self.apply_params(params)?;
        let built = self.built.as_ref().expect("built before first pull");
        let acc = evaluate_cell(&built.model, &mut &built.seq, col, built.spec.train.eval_k)
            .map_err(|e| DistError::Failed(format!("eval cell {col}: {e}")))?;
        self.report.eval_cells += 1;
        Ok(PushBody::EvalCell {
            task: task as u32,
            col: col as u32,
            acc,
        })
    }

    fn push(&mut self, conn: &mut Transport, body: PushBody) -> Result<(), DistError> {
        let resp = exchange(
            conn,
            &Request::Push {
                worker: self.worker_id,
                body,
            },
        )?;
        match resp {
            Response::Ack { .. } => Ok(()),
            Response::Err { code, message } => Err(rejected(code, message)),
            other => Err(DistError::Failed(format!("expected Ack, got {other:?}"))),
        }
    }

    /// One connection's work loop; returns `Ok(true)` when the run is
    /// done, `Ok(false)` never (loops), `Err` on any failure — transient
    /// ones trigger a reconnect in the caller.
    fn serve_connection(&mut self, conn: &mut Transport) -> Result<bool, DistError> {
        loop {
            let resp = exchange(
                conn,
                &Request::Pull {
                    worker: self.worker_id,
                    have_version: self.held_version,
                },
            )?;
            let item = match resp {
                Response::Work(item) => item,
                Response::Err { code, message } => return Err(rejected(code, message)),
                other => {
                    return Err(DistError::Failed(format!(
                        "expected a work item, got {other:?}"
                    )))
                }
            };
            match item {
                WorkItem::Wait { poll_ms } => {
                    std::thread::sleep(Duration::from_millis(poll_ms.max(1)));
                }
                WorkItem::Boundary {
                    task,
                    end,
                    gen,
                    params,
                    rng,
                } => {
                    let done = self.run_boundary(task as usize, end, gen, &params, rng)?;
                    self.barrier(conn, done)?;
                }
                WorkItem::Step {
                    task,
                    lr,
                    batch,
                    params,
                    rng,
                    ..
                } => {
                    let body = self.run_step(task as usize, lr, &batch, &params, rng)?;
                    self.push(conn, body)?;
                }
                WorkItem::Eval { task, col, params } => {
                    let body = self.run_eval(task as usize, col as usize, &params)?;
                    self.push(conn, body)?;
                }
                WorkItem::Done => return Ok(true),
            }
        }
    }
}

/// Runs a worker against the parameter server at `addr` until the run
/// completes (`Done`), the server rejects it, or the reconnect budget is
/// exhausted.
pub fn run_worker(addr: &str, opts: WorkerOptions) -> Result<WorkerReport, DistError> {
    let max_reconnects = opts.max_reconnects();
    let delay = opts.reconnect_delay();
    let mut w = Worker {
        opts,
        built: None,
        worker_id: 0,
        token: session_token(),
        held_version: 0,
        held_bits: Vec::new(),
        last_boundary: None,
        sparse_threshold: 0.25,
        poll_ms: 5,
        report: WorkerReport::default(),
    };
    let mut attempt = 0usize;
    loop {
        let result = (|| -> Result<bool, DistError> {
            let mut conn = w.connect(addr, attempt)?;
            let served = (|| {
                w.hello(&mut conn)?;
                w.serve_connection(&mut conn)
            })();
            w.report.faults_injected += conn.injected();
            served
        })();
        attempt += 1;
        match result {
            Ok(true) => {
                w.report.worker_id = w.worker_id;
                w.report.reconnects = (attempt - 1) as u64;
                if edsr_obs::enabled() {
                    edsr_obs::counter("dist/worker_steps", w.report.steps);
                    edsr_obs::counter("dist/worker_reconnects", w.report.reconnects);
                }
                return Ok(w.report);
            }
            Ok(false) => unreachable!("serve_connection loops until Done or error"),
            Err(e) if transient(&e) => {
                if attempt > max_reconnects {
                    return Err(e);
                }
                std::thread::sleep(delay);
            }
            Err(e) => return Err(e),
        }
    }
}
