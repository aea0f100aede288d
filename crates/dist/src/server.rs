//! The parameter server: owns the canonical model, optimizer, and RNG
//! stream, and drives the run as a lockstep state machine.
//!
//! # Determinism model (DESIGN.md §14)
//!
//! The BarlowTwins objective is not sample-separable, so a training
//! step's gradient is computed *whole* by exactly one worker and applied
//! in strict step order — the server never averages concurrent
//! gradients. What distributes is everything around the steps:
//! evaluation cells fan out across workers (they are RNG-free and pure
//! in the model), and task-boundary ops run redundantly on every worker
//! from identical inputs, verified at a barrier.
//!
//! The server is the single owner of the canonical RNG stream. It
//! replays the exact draw order of the in-process runner: `begin_task`
//! (on workers, state adopted at the barrier) → per-epoch batch shuffle
//! (computed server-side) → per-step `train_step` draws (on the worker,
//! post-state pushed back with the gradients) → `end_task` (workers,
//! barrier) → evaluation (no draws). Because every work item carries
//! the exact RNG position to start from, a step can be recomputed by
//! any worker after a timeout and the result is bit-identical — which
//! is what makes reissue-on-timeout safe.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use edsr_cl::{epoch_base_lr, AccuracyMatrix, ContinualModel, ModelConfig, TrainConfig};
use edsr_data::BatchIter;
use edsr_nn::io::params_to_bytes;
use edsr_nn::Optimizer;
use edsr_tensor::rng::seeded;
use edsr_wire::PatientReader;
use rand::rngs::StdRng;

use crate::codec::{decode_tensors, encode_tensors, tensor_bits};
use crate::protocol::{
    DistStats, ParamsBlob, PushBody, Request, Response, WorkItem, DIST_PROTOCOL_VERSION,
    ERR_BAD_REQUEST, ERR_CORRUPT, ERR_DESYNC, ERR_DIVERGED, ERR_INTERNAL, ERR_SHUTTING_DOWN,
    ERR_UNKNOWN_WORKER,
};
use crate::sessions::{HelloError, Registry};
use crate::spec::{preset_for, DistSpec};
use crate::DistError;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct PsConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Number of workers the run waits for.
    pub workers: usize,
    /// Reissue a step/eval work item after this long without its push.
    pub push_timeout_ms: u64,
    /// Density cutoff for the sparse/delta codec.
    pub sparse_threshold: f32,
    /// Suggested client polling delay.
    pub poll_ms: u64,
    /// Write the final parameters here on success.
    pub save: Option<PathBuf>,
}

impl Default for PsConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            push_timeout_ms: 2000,
            sparse_threshold: 0.25,
            poll_ms: 5,
            save: None,
        }
    }
}

/// Outcome of a completed distributed run.
#[derive(Debug, Clone)]
pub struct DistRunReport {
    /// The full accuracy matrix, identical to the in-process runner's.
    pub matrix: AccuracyMatrix,
    /// Mean training loss per increment.
    pub task_losses: Vec<f32>,
    /// Wall-clock seconds per increment (boundary-begin to boundary-end).
    pub task_seconds: Vec<f64>,
    /// Final parameter version (= optimizer steps applied).
    pub final_version: u64,
    /// Final parameters, byte-identical to
    /// `params_to_bytes` of the in-process runner's model.
    pub params_payload: Vec<u8>,
    /// Final server counters.
    pub stats: DistStats,
    /// Total worker reconnects observed.
    pub reconnects: u64,
}

/// What every worker must agree on at a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BarrierReport {
    rng: [u64; 4],
    state_crc: u32,
    params_crc: u32,
}

enum Phase {
    /// Waiting for all workers to register.
    Gather,
    /// A boundary op (`begin_task`/`end_task`) is running on all workers.
    Boundary {
        task: usize,
        end: bool,
        gen: u64,
        arrived: Vec<Option<BarrierReport>>,
    },
    /// Serialized training steps of one epoch.
    Steps {
        task: usize,
        epoch: usize,
        step: usize,
        lr: f32,
        schedule: Vec<Vec<u32>>,
        outstanding: Option<(usize, Instant)>,
    },
    /// Evaluation row of a finished increment, fanned out cell-by-cell.
    Eval { task: usize, cells: Vec<CellState> },
    /// Handing Done to each worker.
    Drain,
    /// Run complete; report sent.
    Finished,
    /// Run failed; every request gets the stored error.
    Failed { code: u16, message: String },
}

#[derive(Debug, Clone, Copy)]
struct CellState {
    acc: Option<f32>,
    assigned: Option<(usize, Instant)>,
}

struct Coordinator {
    spec: DistSpec,
    cfg: PsConfig,
    train: TrainConfig,
    /// Per-increment train-split length (the only dataset fact the
    /// server needs — batch schedules derive from it).
    train_lens: Vec<usize>,
    /// Server replica: parameter + gradient buffers. The server never
    /// runs the method; it only applies pushed gradients.
    model: ContinualModel,
    opt: Box<dyn Optimizer>,
    /// Canonical RNG stream position.
    rng: [u64; 4],
    /// Current parameter version; 1 = initial weights.
    version: u64,
    registry: Registry,
    phase: Phase,
    next_gen: u64,
    released_gen: u64,
    matrix: AccuracyMatrix,
    task_losses: Vec<f32>,
    task_seconds: Vec<f64>,
    task_start: Option<Instant>,
    task_loss_sum: f32,
    task_loss_count: usize,
    epoch_loss_sum: f32,
    epoch_loss_count: usize,
    stats: DistStats,
    result_tx: Option<Sender<Result<DistRunReport, DistError>>>,
}

impl Coordinator {
    fn push_timeout(&self) -> Duration {
        Duration::from_millis(self.cfg.push_timeout_ms)
    }

    fn params_crc(&self) -> u32 {
        edsr_wire::crc32(&params_to_bytes(&self.model.params))
    }

    /// Encodes the current parameters for `worker`, delta-coding against
    /// the worker's last confirmed snapshot when `have_version` matches
    /// it, and records the sent bits as the worker's new baseline.
    fn params_blob(&mut self, worker: usize, have_version: u64) -> Result<ParamsBlob, String> {
        let ids: Vec<_> = self.model.params.ids().collect();
        let tensors: Vec<&[f32]> = ids
            .iter()
            .map(|id| self.model.params.value(*id).data())
            .collect();
        let (payload, base_version) = match self.registry.baseline_if(worker, have_version) {
            Some(baseline) => {
                let p = encode_tensors(&tensors, Some(baseline), self.cfg.sparse_threshold)
                    .map_err(|e| format!("param delta encode: {e}"))?;
                (p, Some(have_version))
            }
            _ => {
                let p = encode_tensors(&tensors, None, self.cfg.sparse_threshold)
                    .map_err(|e| format!("param encode: {e}"))?;
                (p, None)
            }
        };
        self.stats.pull_bytes += payload.len() as u64;
        let bits = tensor_bits(&tensors);
        self.registry.set_baseline(worker, self.version, bits);
        Ok(ParamsBlob {
            version: self.version,
            base_version,
            payload,
        })
    }

    fn fail(&mut self, code: u16, err: DistError) -> Response {
        let message = err.to_string();
        if let Some(tx) = self.result_tx.take() {
            let _ = tx.send(Err(err));
        }
        self.phase = Phase::Failed {
            code,
            message: message.clone(),
        };
        Response::Err { code, message }
    }

    fn enter_boundary(&mut self, task: usize, end: bool) {
        if !end {
            self.task_start = Some(Instant::now());
            self.task_loss_sum = 0.0;
            self.task_loss_count = 0;
            self.epoch_loss_sum = 0.0;
            self.epoch_loss_count = 0;
        }
        self.next_gen += 1;
        self.phase = Phase::Boundary {
            task,
            end,
            gen: self.next_gen,
            arrived: vec![None; self.registry.expected()],
        };
    }

    /// Advances into the first epoch at-or-after `epoch` that has a
    /// non-empty batch schedule, or into the end-of-task boundary.
    /// Mirrors the in-process epoch loop exactly, including consuming
    /// one shuffle's worth of RNG per epoch even when the schedule is
    /// empty.
    fn enter_steps(&mut self, task: usize, mut epoch: usize) {
        loop {
            if epoch >= self.train.epochs_per_task {
                self.enter_boundary(task, true);
                return;
            }
            let lr = epoch_base_lr(&self.train, epoch);
            let mut rng = StdRng::from_state(self.rng);
            let schedule: Vec<Vec<u32>> =
                BatchIter::new(self.train_lens[task], self.train.batch_size, &mut rng)
                    .map(|b| b.iter().map(|&i| i as u32).collect())
                    .collect();
            self.rng = rng.state();
            if schedule.is_empty() {
                epoch += 1;
                continue;
            }
            self.phase = Phase::Steps {
                task,
                epoch,
                step: 0,
                lr,
                schedule,
                outstanding: None,
            };
            return;
        }
    }

    fn enter_eval(&mut self, task: usize) {
        self.phase = Phase::Eval {
            task,
            cells: vec![
                CellState {
                    acc: None,
                    assigned: None,
                };
                task + 1
            ],
        };
    }

    fn finish(&mut self) {
        let report = DistRunReport {
            matrix: self.matrix.clone(),
            task_losses: self.task_losses.clone(),
            task_seconds: self.task_seconds.clone(),
            final_version: self.version,
            params_payload: params_to_bytes(&self.model.params),
            stats: self.snapshot_stats(),
            reconnects: self.registry.reconnects(),
        };
        if let Some(path) = &self.cfg.save {
            if let Err(e) = edsr_nn::save_params(&self.model.params, path) {
                self.fail(
                    ERR_INTERNAL,
                    DistError::Failed(format!("saving final params: {e}")),
                );
                return;
            }
        }
        if let Some(tx) = self.result_tx.take() {
            let _ = tx.send(Ok(report));
        }
        self.phase = Phase::Finished;
    }

    fn snapshot_stats(&self) -> DistStats {
        let mut s = self.stats;
        s.workers = self.registry.expected() as u32;
        s.registered = self.registry.registered() as u32;
        s.version = self.version;
        let (task, epoch) = match &self.phase {
            Phase::Boundary { task, .. } | Phase::Eval { task, .. } => (*task, 0),
            Phase::Steps { task, epoch, .. } => (*task, *epoch),
            _ => (self.task_seconds.len(), 0),
        };
        s.task = task as u32;
        s.epoch = epoch as u32;
        s
    }

    fn handle_hello(&mut self, proto: u16, token: u64) -> Response {
        if proto != DIST_PROTOCOL_VERSION {
            return Response::Err {
                code: ERR_BAD_REQUEST,
                message: format!(
                    "protocol version {proto} (server speaks {DIST_PROTOCOL_VERSION})"
                ),
            };
        }
        match self.registry.hello(token) {
            Ok(worker) => {
                if matches!(self.phase, Phase::Gather) && self.registry.all_registered() {
                    self.enter_boundary(0, false);
                }
                Response::Welcome {
                    worker: worker as u32,
                    workers: self.registry.expected() as u32,
                    push_timeout_ms: self.cfg.push_timeout_ms,
                    sparse_threshold: self.cfg.sparse_threshold,
                    poll_ms: self.cfg.poll_ms,
                    spec: self.spec.clone(),
                }
            }
            Err(HelloError::Full { expected }) => Response::Err {
                code: ERR_BAD_REQUEST,
                message: format!("all {expected} worker slots are registered"),
            },
            Err(HelloError::BadToken) => Response::Err {
                code: ERR_BAD_REQUEST,
                message: "session token must be nonzero".into(),
            },
        }
    }

    fn handle_pull(&mut self, worker: usize, have_version: u64) -> Response {
        if !self.registry.is_registered(worker) {
            return Response::Err {
                code: ERR_UNKNOWN_WORKER,
                message: format!("worker {worker} is not registered"),
            };
        }
        self.stats.pulls += 1;

        // Decide under the phase borrow, then build the response (which
        // needs `&mut self` for parameter encoding) after it ends.
        enum Todo {
            Wait,
            Boundary {
                task: u32,
                end: bool,
                gen: u64,
            },
            Step {
                task: u32,
                epoch: u32,
                step: u32,
                lr: f32,
                batch: Vec<u32>,
            },
            Eval {
                task: u32,
                col: u32,
            },
            Done {
                finish: bool,
            },
            Failed {
                code: u16,
                message: String,
            },
        }

        let timeout = self.push_timeout();
        let mut reissue = false;
        let registry = &mut self.registry;
        let todo = match &mut self.phase {
            Phase::Gather => Todo::Wait,
            Phase::Boundary { task, end, gen, .. } => Todo::Boundary {
                task: *task as u32,
                end: *end,
                gen: *gen,
            },
            Phase::Steps {
                task,
                epoch,
                step,
                lr,
                schedule,
                outstanding,
            } => {
                let timed_out = outstanding
                    .map(|(_, at)| at.elapsed() >= timeout)
                    .unwrap_or(false);
                if outstanding.is_some() && !timed_out {
                    Todo::Wait
                } else {
                    reissue = timed_out;
                    let batch = schedule[*step].clone();
                    *outstanding = Some((worker, Instant::now()));
                    Todo::Step {
                        task: *task as u32,
                        epoch: *epoch as u32,
                        step: *step as u32,
                        lr: *lr,
                        batch,
                    }
                }
            }
            Phase::Eval { task, cells } => {
                let mut pick = None;
                for (col, cell) in cells.iter_mut().enumerate() {
                    if cell.acc.is_some() {
                        continue;
                    }
                    match cell.assigned {
                        None => {
                            pick = Some((col, false));
                            break;
                        }
                        Some((_, at)) if at.elapsed() >= timeout => {
                            pick = Some((col, true));
                            break;
                        }
                        Some(_) => {}
                    }
                }
                match pick {
                    Some((col, r)) => {
                        reissue = r;
                        cells[col].assigned = Some((worker, Instant::now()));
                        Todo::Eval {
                            task: *task as u32,
                            col: col as u32,
                        }
                    }
                    None => Todo::Wait,
                }
            }
            Phase::Drain => {
                registry.mark_done(worker);
                Todo::Done {
                    finish: registry.all_done(),
                }
            }
            Phase::Finished => Todo::Done { finish: false },
            Phase::Failed { code, message } => Todo::Failed {
                code: *code,
                message: message.clone(),
            },
        };
        if reissue {
            self.stats.reissues += 1;
        }

        match todo {
            Todo::Wait => Response::Work(WorkItem::Wait {
                poll_ms: self.cfg.poll_ms,
            }),
            Todo::Boundary { task, end, gen } => match self.params_blob(worker, have_version) {
                Ok(params) => Response::Work(WorkItem::Boundary {
                    task,
                    end,
                    gen,
                    params,
                    rng: self.rng,
                }),
                Err(e) => self.fail(ERR_INTERNAL, DistError::Failed(e)),
            },
            Todo::Step {
                task,
                epoch,
                step,
                lr,
                batch,
            } => match self.params_blob(worker, have_version) {
                Ok(params) => Response::Work(WorkItem::Step {
                    task,
                    epoch,
                    step,
                    shard: 0,
                    shards: 1,
                    lr,
                    batch,
                    params,
                    rng: self.rng,
                }),
                Err(e) => self.fail(ERR_INTERNAL, DistError::Failed(e)),
            },
            Todo::Eval { task, col } => match self.params_blob(worker, have_version) {
                Ok(params) => Response::Work(WorkItem::Eval { task, col, params }),
                Err(e) => self.fail(ERR_INTERNAL, DistError::Failed(e)),
            },
            Todo::Done { finish } => {
                if finish {
                    self.finish();
                }
                Response::Work(WorkItem::Done)
            }
            Todo::Failed { code, message } => Response::Err { code, message },
        }
    }

    fn apply_grads(&mut self, version: u64, loss: f32, rng: [u64; 4], payload: &[u8]) -> Response {
        let Phase::Steps {
            task, epoch, lr, ..
        } = &self.phase
        else {
            return Response::Ack { applied: false };
        };
        let (task, epoch, lr) = (*task, *epoch, *lr);
        if version != self.version {
            return Response::Ack { applied: false };
        }
        if !loss.is_finite() {
            return self.fail(ERR_DIVERGED, DistError::Diverged { task, loss });
        }
        self.stats.push_bytes += payload.len() as u64;
        let ids: Vec<_> = self.model.params.ids().collect();
        let lens: Vec<usize> = ids
            .iter()
            .map(|id| self.model.params.value(*id).len())
            .collect();
        let grads = match decode_tensors(payload, None, &lens) {
            Ok(g) => g,
            Err(e) => {
                return Response::Err {
                    code: ERR_BAD_REQUEST,
                    message: format!("gradient payload: {e}"),
                }
            }
        };
        // Install, don't accumulate: `0.0 + (-0.0)` would flip the sign
        // bit of negative-zero gradient components and break bit-identity
        // downstream of the optimizer's moment buffers.
        for (id, g) in ids.iter().zip(&grads) {
            self.model
                .params
                .grad_mut(*id)
                .data_mut()
                .copy_from_slice(g);
        }
        self.opt.set_lr(lr);
        self.opt.step(&mut self.model.params);
        self.version += 1;
        self.rng = rng;
        self.stats.steps += 1;
        self.epoch_loss_sum += loss;
        self.epoch_loss_count += 1;
        if edsr_obs::enabled() {
            edsr_obs::gauge("dist/version", self.version as f64);
            edsr_obs::gauge_at("train/loss", task as u64, f64::from(loss));
        }
        let epoch_done = {
            let Phase::Steps {
                step,
                schedule,
                outstanding,
                ..
            } = &mut self.phase
            else {
                unreachable!("phase checked above")
            };
            *outstanding = None;
            *step += 1;
            *step >= schedule.len()
        };
        if epoch_done {
            // Fold per-epoch sums in the same order the in-process
            // runner does, so the reported task means match bit-for-bit.
            self.task_loss_sum += self.epoch_loss_sum;
            self.task_loss_count += self.epoch_loss_count;
            self.epoch_loss_sum = 0.0;
            self.epoch_loss_count = 0;
            self.enter_steps(task, epoch + 1);
        }
        Response::Ack { applied: true }
    }

    fn apply_eval_cell(&mut self, cell_task: usize, col: usize, acc: f32) -> Response {
        let Phase::Eval { task, cells } = &mut self.phase else {
            return Response::Ack { applied: false };
        };
        if cell_task != *task || col >= cells.len() || cells[col].acc.is_some() {
            return Response::Ack { applied: false };
        }
        cells[col].acc = Some(acc);
        self.stats.eval_cells += 1;
        if cells.iter().all(|c| c.acc.is_some()) {
            let task = *task;
            let row: Vec<f32> = cells.iter().map(|c| c.acc.unwrap()).collect();
            if edsr_obs::enabled() {
                let mean = row.iter().sum::<f32>() / row.len().max(1) as f32;
                edsr_obs::gauge_at("eval/mean_acc", task as u64, f64::from(mean));
            }
            self.matrix.push_row(row);
            if task + 1 < self.train_lens.len() {
                self.enter_boundary(task + 1, false);
            } else {
                self.phase = Phase::Drain;
            }
        }
        Response::Ack { applied: true }
    }

    fn handle_push(&mut self, worker: usize, body: PushBody) -> Response {
        if !self.registry.is_registered(worker) {
            return Response::Err {
                code: ERR_UNKNOWN_WORKER,
                message: format!("worker {worker} is not registered"),
            };
        }
        self.stats.pushes += 1;
        match body {
            PushBody::Grads {
                version,
                shard,
                shards,
                loss,
                rng,
                grads,
            } => {
                if shards != 1 || shard != 0 {
                    return Response::Err {
                        code: ERR_BAD_REQUEST,
                        message: format!(
                            "shard {shard}/{shards}: synchronous mode runs single-shard steps"
                        ),
                    };
                }
                self.apply_grads(version, loss, rng, &grads)
            }
            PushBody::EvalCell { task, col, acc } => {
                self.apply_eval_cell(task as usize, col as usize, acc)
            }
        }
    }

    fn handle_barrier(&mut self, worker: usize, gen: u64, report: BarrierReport) -> Response {
        if !self.registry.is_registered(worker) {
            return Response::Err {
                code: ERR_UNKNOWN_WORKER,
                message: format!("worker {worker} is not registered"),
            };
        }
        if let Phase::Failed { code, message } = &self.phase {
            return Response::Err {
                code: *code,
                message: message.clone(),
            };
        }
        if gen <= self.released_gen {
            return Response::Barrier {
                released: true,
                poll_ms: self.cfg.poll_ms,
            };
        }
        let all_arrived = match &mut self.phase {
            Phase::Boundary {
                gen: cur_gen,
                arrived,
                ..
            } if *cur_gen == gen => {
                arrived[worker] = Some(report);
                arrived.iter().all(Option::is_some)
            }
            _ => {
                return Response::Barrier {
                    released: false,
                    poll_ms: self.cfg.poll_ms,
                }
            }
        };
        if !all_arrived {
            return Response::Barrier {
                released: false,
                poll_ms: self.cfg.poll_ms,
            };
        }
        let Phase::Boundary {
            task, end, arrived, ..
        } = &self.phase
        else {
            unreachable!("matched above")
        };
        let (task, end) = (*task, *end);
        let reports: Vec<BarrierReport> = arrived.iter().map(|r| r.unwrap()).collect();
        let first = reports[0];
        if let Some(w) = reports.iter().position(|r| *r != first) {
            return self.fail(
                ERR_DESYNC,
                DistError::Desync(format!(
                    "worker {w} disagrees at {} boundary of task {task}: \
                     rng/state/params CRCs diverged (is the method's train_step \
                     mutating method state? that requires single-worker mode)",
                    if end { "end" } else { "begin" },
                )),
            );
        }
        let server_crc = self.params_crc();
        if first.params_crc != server_crc {
            return self.fail(
                ERR_DESYNC,
                DistError::Desync(format!(
                    "{} boundary of task {task} mutated parameters on workers \
                     (crc {:08x} vs server {server_crc:08x}); boundary ops must \
                     leave parameters untouched",
                    if end { "end" } else { "begin" },
                    first.params_crc,
                )),
            );
        }
        // Adopt the post-boundary RNG position as canonical.
        self.rng = first.rng;
        self.released_gen = gen;
        self.stats.barriers += 1;
        if end {
            let mean = if self.task_loss_count > 0 {
                self.task_loss_sum / self.task_loss_count as f32
            } else {
                0.0
            };
            self.task_losses.push(mean);
            let secs = self
                .task_start
                .take()
                .map(|t| t.elapsed().as_secs_f64())
                .unwrap_or(0.0);
            self.task_seconds.push(secs);
            self.enter_eval(task);
        } else {
            self.enter_steps(task, 0);
        }
        Response::Barrier {
            released: true,
            poll_ms: self.cfg.poll_ms,
        }
    }

    fn handle_shutdown(&mut self) -> Response {
        if !matches!(self.phase, Phase::Finished) {
            self.fail(
                ERR_SHUTTING_DOWN,
                DistError::Failed("shutdown requested before the run finished".into()),
            );
        }
        Response::Ack { applied: true }
    }

    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Hello { proto, token } => self.handle_hello(proto, token),
            Request::Pull {
                worker,
                have_version,
            } => self.handle_pull(worker as usize, have_version),
            Request::Push { worker, body } => self.handle_push(worker as usize, body),
            Request::Barrier {
                worker,
                gen,
                rng,
                state_crc,
                params_crc,
            } => self.handle_barrier(
                worker as usize,
                gen,
                BarrierReport {
                    rng,
                    state_crc,
                    params_crc,
                },
            ),
            Request::Stats => Response::Stats(self.snapshot_stats()),
            Request::Shutdown => self.handle_shutdown(),
        }
    }
}

/// Handle to a running parameter server.
pub struct PsHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    result_rx: Receiver<Result<DistRunReport, DistError>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl PsHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Blocks until the run completes or fails, then stops the server.
    pub fn wait(mut self) -> Result<DistRunReport, DistError> {
        let result = self
            .result_rx
            .recv()
            .map_err(|_| DistError::Failed("server exited without a result".into()))?;
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        result
    }
}

impl Drop for PsHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Starts a parameter server for `spec` and returns once it is
/// listening. The run itself completes asynchronously; call
/// [`PsHandle::wait`] for the result.
pub fn serve_ps(spec: DistSpec, cfg: PsConfig) -> Result<PsHandle, DistError> {
    if cfg.workers == 0 {
        return Err(DistError::InvalidConfig("workers must be >= 1".into()));
    }
    let preset = preset_for(&spec)
        .ok_or_else(|| DistError::InvalidConfig(format!("unknown preset {:?}", spec.preset)))?;
    if crate::spec::build_method(&spec, &preset).is_none() {
        return Err(DistError::InvalidConfig(format!(
            "unknown method {:?}",
            spec.method
        )));
    }
    // Server replica, constructed exactly as `edsr run` constructs the
    // real one: data from seed, model from seed+1000, run RNG from
    // seed+2000. Only the sequence *lengths* are kept — batches and
    // evaluation live on the workers.
    let seq = preset.build(&mut seeded(spec.seed));
    let train_lens: Vec<usize> = seq.tasks.iter().map(|t| t.train.len()).collect();
    let model = ContinualModel::new(
        &ModelConfig::image(preset.grid.dim()),
        &mut seeded(spec.seed + 1000),
    );
    let opt = spec.train.build_optimizer();
    let rng = seeded(spec.seed + 2000).state();

    let listener = TcpListener::bind(&cfg.addr).map_err(DistError::Io)?;
    let addr = listener.local_addr().map_err(DistError::Io)?;
    listener.set_nonblocking(true).map_err(DistError::Io)?;

    let (result_tx, result_rx) = mpsc::channel();
    let workers = cfg.workers;
    let poll = Duration::from_millis(cfg.poll_ms.max(1));
    let train = spec.train.clone();
    let coordinator = Arc::new(Mutex::new(Coordinator {
        spec,
        cfg,
        train,
        train_lens,
        model,
        opt,
        rng,
        version: 1,
        registry: Registry::new(workers),
        phase: Phase::Gather,
        next_gen: 0,
        released_gen: 0,
        matrix: AccuracyMatrix::new(),
        task_losses: Vec::new(),
        task_seconds: Vec::new(),
        task_start: None,
        task_loss_sum: 0.0,
        task_loss_count: 0,
        epoch_loss_sum: 0.0,
        epoch_loss_count: 0,
        stats: DistStats::default(),
        result_tx: Some(result_tx),
    }));

    let shutdown = Arc::new(AtomicBool::new(false));
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_coord = Arc::clone(&coordinator);
    let accept_thread = std::thread::spawn(move || {
        let _span = edsr_obs::span!("dist_ps");
        loop {
            if accept_shutdown.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let coord = Arc::clone(&accept_coord);
                    let conn_shutdown = Arc::clone(&accept_shutdown);
                    std::thread::spawn(move || serve_conn(stream, coord, conn_shutdown));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(poll.max(Duration::from_millis(10)));
                }
                Err(_) => break,
            }
        }
    });

    Ok(PsHandle {
        addr,
        shutdown,
        result_rx,
        accept_thread: Some(accept_thread),
    })
}

/// How long a worker may go silent in the middle of a frame before its
/// connection is dropped. The worker reconnects, and a work item it held
/// is reissued after the push timeout.
const STALL_CAP: Duration = Duration::from_secs(5);

fn serve_conn(
    stream: std::net::TcpStream,
    coordinator: Arc<Mutex<Coordinator>>,
    shutdown: Arc<AtomicBool>,
) {
    // Accepted sockets inherit the listener's non-blocking mode on some
    // platforms; frame reads below assume blocking I/O with a timeout so
    // the loop can notice shutdown.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let mut buf = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let got = {
            let mut reader = PatientReader::new(&mut stream, &shutdown, STALL_CAP);
            edsr_wire::read_frame(&mut reader, &mut buf)
        };
        match got {
            Ok(true) => {}
            Ok(false) => return, // clean disconnect
            Err(_) => return,
        }
        let response = match Request::decode(&buf) {
            Ok(req) => {
                let mut coord = coordinator.lock().expect("coordinator poisoned");
                coord.handle(req)
            }
            // Requests come only from our own worker code; anything that
            // fails to parse (or fails its CRC) is wire corruption. The
            // request was never acted on, so the client can just retry.
            Err(e) => Response::Err {
                code: ERR_CORRUPT,
                message: e.to_string(),
            },
        };
        if edsr_wire::write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
    }
}
