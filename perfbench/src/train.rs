//! The training half of a workload: EDSR continual runs over a preset,
//! either one seed after another (kernels split across the pool) or
//! fanned out over seeds through `edsr_bench::run_method_over_seeds`
//! (parallel at the seed level, kernels inline).
//!
//! The untraced pass calls the program exactly as a user would. The
//! traced pass wraps the public seams — a delegating [`Method`], a
//! delegating [`TaskSource`] and an [`Observer`] — and records spans
//! around each call. It also re-invokes the public functions behind
//! selection (`represent`, `SelectionStrategy::select`,
//! `noise_magnitudes`) and evaluation (`represent`, `knn_classify`) on
//! the same inputs to split those layers, and checks that the re-computed
//! results equal what the run produced.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use edsr_cl::checkpoint::ServeSnapshot;
use edsr_cl::{
    accuracy, knn_classify, ContinualModel, Method, ModelConfig, Observer, RunBuilder, RunResult,
    TrainConfig,
};
use edsr_core::noise::noise_magnitudes;
use edsr_core::select::{SelectionContext, SelectionStrategy};
use edsr_core::Edsr;
use edsr_data::{Augmenter, DataError, Dataset, Preset, Task, TaskSequence, TaskSource};
use edsr_nn::{Optimizer, Workspace};
use edsr_tensor::rng::seeded;
use edsr_tensor::Matrix;
use rand::rngs::StdRng;

use crate::trace::{Span, Tracer};

/// What the training half runs.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// The data stream.
    pub preset: Preset,
    /// Epochs per increment.
    pub epochs: usize,
    /// Seeds trained per benchmark run.
    pub seeds: usize,
    /// 1: seeds run one after another. n > 1: seeds fan out n at a time.
    pub fanout: usize,
    /// Recorded `(data seed, accuracy-matrix digest)` pairs the run draws
    /// its seeds from. Empty: seeds derive from the workload seed and
    /// only the repetition check applies.
    pub pool: &'static [(u64, u64)],
}

impl TrainSpec {
    /// The training configuration (the paper's image defaults with the
    /// spec's epoch count).
    pub fn config(&self) -> TrainConfig {
        TrainConfig {
            epochs_per_task: self.epochs,
            ..TrainConfig::image()
        }
    }

    /// The data seeds one benchmark run trains, drawn from the pool by a
    /// seeded shuffle (or derived from `seed` when there is no pool).
    pub fn draw_seeds(&self, seed: u64) -> Vec<u64> {
        if self.pool.is_empty() {
            return (0..self.seeds as u64)
                .map(|i| seed * 1000 + i + 1)
                .collect();
        }
        let mut order: Vec<u64> = self.pool.iter().map(|p| p.0).collect();
        let mut rng = seeded(seed ^ 0x5EED_D4A7);
        for i in (1..order.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order.truncate(self.seeds);
        order
    }

    /// The recorded digest for `seed`, if the pool has one.
    pub fn recorded_digest(&self, seed: u64) -> Option<u64> {
        self.pool.iter().find(|p| p.0 == seed).map(|p| p.1)
    }

    fn method(&self) -> Edsr {
        Edsr::paper_default(
            self.preset.per_task_budget(),
            self.config().replay_batch,
            self.preset.noise_neighbors,
        )
    }
}

/// FNV-1a over the bit patterns of an accuracy matrix, row by row.
pub fn matrix_digest(run: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in run.matrix.rows() {
        for byte in (row.len() as u32)
            .to_le_bytes()
            .into_iter()
            .chain(row.iter().flat_map(|v| v.to_bits().to_le_bytes()))
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Builds one seed's data, model and method (the set-up a user pays).
fn build(spec: &TrainSpec, seed: u64) -> (TaskSequence, Vec<Augmenter>, ContinualModel, Edsr) {
    let (seq, augs) = spec.preset.build_with_augmenters(&mut seeded(seed));
    let model = ContinualModel::new(
        &ModelConfig::image(spec.preset.grid.dim()),
        &mut seeded(seed + 1000),
    );
    (seq, augs, model, spec.method())
}

/// The replay memory of a trained EDSR as a serve snapshot.
fn capture(
    model: &ContinualModel,
    method: &dyn Method,
    seq_name: &str,
    tasks: usize,
) -> ServeSnapshot {
    let (reprs, repr_tasks) = method
        .replay_representations()
        .unwrap_or_else(|| (Matrix::zeros(0, model.repr_dim()), Vec::new()));
    ServeSnapshot::capture(model, reprs, repr_tasks, seq_name, tasks).expect("snapshot capture")
}

/// One seed's result.
#[derive(Debug, Clone)]
pub struct SeedResult {
    /// Data seed.
    pub seed: u64,
    /// Final Acc, percent.
    pub acc: f64,
    /// Final Fgt, percent.
    pub fgt: f64,
    /// Accuracy-matrix digest.
    pub digest: u64,
    /// This seed's own run wall time, s.
    pub run_s: f64,
}

impl SeedResult {
    fn of(seed: u64, run: &RunResult, run_s: f64) -> Self {
        Self {
            seed,
            acc: f64::from(run.final_acc_pct()),
            fgt: f64::from(run.final_fgt_pct()),
            digest: matrix_digest(run),
            run_s,
        }
    }
}

/// Everything the training half measured.
#[derive(Debug)]
pub struct TrainOutcome {
    /// Per-seed construction times, s.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed unit (one run, or one fan-out), s.
    pub unit_s: Vec<f64>,
    /// Per-seed results, in draw order.
    pub seeds: Vec<SeedResult>,
    /// Spans of the traced pass (empty when untraced).
    pub spans: Vec<Span>,
    /// Output checks made and failed (digests, re-computed layers).
    pub checks: usize,
    /// Output checks that failed.
    pub failed: usize,
}

/// The untraced training half, one timed unit at a time (one seed, or
/// one fan-out of `fanout` seeds), so the caller can spread the units
/// over the run.
pub struct Plain<'a> {
    spec: &'a TrainSpec,
    cfg: TrainConfig,
    seeds: Vec<u64>,
    done: usize,
    setup_s: Vec<f64>,
    unit_s: Vec<f64>,
    results: Vec<SeedResult>,
    snapshot: Option<ServeSnapshot>,
}

impl<'a> Plain<'a> {
    /// Trains `seeds` (drawn with [`TrainSpec::draw_seeds`]).
    pub fn new(spec: &'a TrainSpec, seeds: Vec<u64>) -> Self {
        Self {
            spec,
            cfg: spec.config(),
            seeds,
            done: 0,
            setup_s: Vec::new(),
            unit_s: Vec::new(),
            results: Vec::new(),
            snapshot: None,
        }
    }

    /// Timed units still to run.
    pub fn remaining(&self) -> usize {
        self.seeds[self.done..]
            .chunks(self.spec.fanout.max(1))
            .count()
    }

    /// The first seed's trained model and memory (after the first unit).
    pub fn snapshot(&self) -> Option<&ServeSnapshot> {
        self.snapshot.as_ref()
    }

    /// Runs the next unit.
    pub fn unit(&mut self) {
        let spec = self.spec;
        let n = spec.fanout.max(1).min(self.seeds.len() - self.done);
        let chunk = self.seeds[self.done..self.done + n].to_vec();
        self.done += n;
        if spec.fanout <= 1 {
            let s = chunk[0];
            let t0 = Instant::now();
            let (seq, augs, mut model, mut method) = build(spec, s);
            self.setup_s.push(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            let run = RunBuilder::new(&self.cfg)
                .run(
                    &mut method,
                    &mut model,
                    &mut &seq,
                    &augs,
                    &mut seeded(s + 2000),
                )
                .expect("training run");
            let secs = t1.elapsed().as_secs_f64();
            self.unit_s.push(secs);
            self.results.push(SeedResult::of(s, &run, secs));
            if self.snapshot.is_none() {
                self.snapshot = Some(capture(&model, &method, &seq.name, seq.len()));
            }
            return;
        }
        // Construction is timed on its own: the fan-out builds its own
        // copies inside run_method_over_seeds.
        let mut first_seq = None;
        for &s in &chunk {
            let t0 = Instant::now();
            let built = build(spec, s);
            self.setup_s.push(t0.elapsed().as_secs_f64());
            first_seq.get_or_insert(built.0);
        }
        let first_seq = first_seq.expect("non-empty chunk");
        let slot: Arc<Mutex<Option<ServeSnapshot>>> = Arc::default();
        let marker = Arc::new(
            first_seq
                .tasks
                .last()
                .expect("non-empty stream")
                .train
                .inputs
                .row(0)
                .to_vec(),
        );
        let make = {
            let slot = Arc::clone(&slot);
            let edsr_cfg = spec.method().config().clone();
            let name = first_seq.name.clone();
            let tasks = first_seq.len();
            let want_snapshot = self.snapshot.is_none();
            move || -> Box<dyn Method> {
                let inner = Edsr::new(edsr_cfg.clone());
                if !want_snapshot {
                    return Box::new(inner);
                }
                Box::new(CaptureLast {
                    inner,
                    slot: Arc::clone(&slot),
                    marker: Arc::clone(&marker),
                    name: name.clone(),
                    tasks,
                })
            }
        };
        let t0 = Instant::now();
        let sweep = edsr_bench::run_method_over_seeds(&spec.preset, &self.cfg, &chunk, make);
        self.unit_s.push(t0.elapsed().as_secs_f64());
        assert!(
            sweep.failures.is_empty(),
            "fanned-out seeds failed: {:?}",
            sweep.failures
        );
        for (&s, run) in chunk.iter().zip(&sweep.runs) {
            // A seed's own wall time is not visible from outside the
            // fan-out; the traced pass measures it.
            self.results
                .push(SeedResult::of(s, run, run.total_seconds()));
        }
        if self.snapshot.is_none() {
            self.snapshot = slot.lock().expect("snapshot slot").take();
        }
    }

    /// Runs any units left and checks every digest.
    pub fn finish(mut self) -> TrainOutcome {
        while self.remaining() > 0 {
            self.unit();
        }
        let (checks, failed) = check_recorded(self.spec, &self.results);
        TrainOutcome {
            setup_s: self.setup_s,
            unit_s: self.unit_s,
            seeds: self.results,
            spans: Vec::new(),
            checks,
            failed,
        }
    }
}

/// Pool occupancy over one more untraced unit of `seeds` (the first):
/// busy time summed over participants / (participants × wall), read from
/// the `edsr-par` counters, and that unit's outcome. It runs on its own:
/// the counters only accumulate while the observability layer is on,
/// which turns on the program's own spans and gauges too, so the traced
/// pass runs without it.
pub fn pool_share(spec: &TrainSpec, seeds: &[u64]) -> (f64, TrainOutcome) {
    let n = spec.fanout.max(1).min(seeds.len());
    let mut unit = Plain::new(spec, seeds[..n].to_vec());
    let occupancy = crate::pool::Occupancy::start();
    unit.unit();
    let share = occupancy.finish();
    (share, unit.finish())
}

/// Compares every seed's digest with the recorded one; returns
/// `(checks, failed)`.
pub fn check_recorded(spec: &TrainSpec, results: &[SeedResult]) -> (usize, usize) {
    let mut checks = 0;
    let mut failed = 0;
    for r in results {
        if let Some(want) = spec.recorded_digest(r.seed) {
            checks += 1;
            if want != r.digest {
                eprintln!(
                    "check failed: seed {} accuracy matrix digest {:#018x}, recorded {want:#018x}",
                    r.seed, r.digest
                );
                failed += 1;
            }
        }
    }
    (checks, failed)
}

/// Compares every seed's digest with an earlier repetition of the same
/// seed; returns `(checks, failed)`.
pub fn check_repeats(results: &[SeedResult], earlier: &[SeedResult]) -> (usize, usize) {
    let mut checks = 0;
    let mut failed = 0;
    for r in results {
        if let Some(prev) = earlier.iter().find(|p| p.seed == r.seed) {
            checks += 1;
            if prev.digest != r.digest {
                eprintln!(
                    "check failed: seed {} accuracy matrix differs between repetitions",
                    r.seed
                );
                failed += 1;
            }
        }
    }
    (checks, failed)
}

/// Delegates to EDSR and captures a serve snapshot at the end of the last
/// increment of the stream whose last-increment first input is `marker`
/// (the first drawn seed's), so the fan-out serves a deterministic model.
struct CaptureLast {
    inner: Edsr,
    slot: Arc<Mutex<Option<ServeSnapshot>>>,
    marker: Arc<Vec<f32>>,
    name: String,
    tasks: usize,
}

impl Method for CaptureLast {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn begin_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        train: &Dataset,
        rng: &mut StdRng,
    ) {
        self.inner.begin_task(model, task_idx, train, rng);
    }
    fn train_step(
        &mut self,
        model: &mut ContinualModel,
        opt: &mut dyn Optimizer,
        augs: &[Augmenter],
        batch: &Matrix,
        task_idx: usize,
        ws: &mut Workspace,
        rng: &mut StdRng,
    ) -> f32 {
        self.inner
            .train_step(model, opt, augs, batch, task_idx, ws, rng)
    }
    fn end_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        train: &Dataset,
        aug: &Augmenter,
        rng: &mut StdRng,
    ) {
        self.inner.end_task(model, task_idx, train, aug, rng);
        if task_idx + 1 == self.tasks && train.inputs.row(0) == self.marker.as_slice() {
            let snap = capture(model, &self.inner, &self.name, self.tasks);
            *self.slot.lock().expect("snapshot slot") = Some(snap);
        }
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }
    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.inner.load_state(state)
    }
    fn replay_representations(&self) -> Option<(Matrix, Vec<u64>)> {
        self.inner.replay_representations()
    }
}

// ---------------------------------------------------------------------------
// Traced pass.

/// State shared by the traced wrappers of one seed's run (one thread).
struct Shared {
    tracer: Tracer,
    open: Vec<u32>,
    rows: Vec<Vec<f32>>,
    checks: usize,
    failed: usize,
}

type Cell = Rc<RefCell<Shared>>;

impl Shared {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            eprintln!("check failed: {}", what());
            self.failed += 1;
        }
    }
}

/// Times every `fetch` of the wrapped sequence as `data.fetch`.
struct TracedSource<'a> {
    seq: &'a TaskSequence,
    t: Cell,
}

impl TaskSource for TracedSource<'_> {
    fn name(&self) -> &str {
        &self.seq.name
    }
    fn len(&self) -> usize {
        self.seq.len()
    }
    fn dim(&self) -> usize {
        TaskSource::dim(&self.seq)
    }
    fn fetch(&mut self, idx: usize) -> Result<&Task, DataError> {
        let id = self.t.borrow_mut().tracer.enter("data.fetch");
        let out = TaskSource::fetch(&mut self.seq, idx);
        self.t.borrow_mut().tracer.exit(id);
        out
    }
}

/// Opens `cl.task` and `cl.eval` spans from the runner's hooks and keeps
/// each evaluated row for the re-computation check.
struct TracedObserver {
    t: Cell,
}

impl Observer for TracedObserver {
    fn on_task_start(&mut self, _task_idx: usize) {
        let mut s = self.t.borrow_mut();
        let id = s.tracer.enter("cl.task");
        s.open.push(id);
    }
    fn on_select(&mut self, _task_idx: usize, _seconds: f64) {
        let mut s = self.t.borrow_mut();
        let id = s.tracer.enter("cl.eval");
        s.open.push(id);
    }
    fn on_eval(&mut self, _task_idx: usize, row: &[f32]) {
        let mut s = self.t.borrow_mut();
        let id = s.open.pop().expect("eval span open");
        s.tracer.exit(id);
        s.rows.push(row.to_vec());
    }
    fn on_task_end(&mut self, _task_idx: usize, _seconds: f64, _mean_loss: f32) {
        let mut s = self.t.borrow_mut();
        let id = s.open.pop().expect("task span open");
        s.tracer.exit(id);
    }
}

/// Delegates to EDSR, timing each call, and re-invokes the public
/// functions behind selection and evaluation under `bench.replay` spans.
struct TracedMethod<'a> {
    inner: Edsr,
    seq: &'a TaskSequence,
    eval_k: usize,
    t: Cell,
}

impl TracedMethod<'_> {
    /// Re-computes row `upto` of the accuracy matrix from the model's
    /// current weights and checks it equals the row the run produced.
    fn replay_eval(&self, model: &ContinualModel, upto: usize) {
        let mut s = self.t.borrow_mut();
        let rid = s.tracer.enter("bench.replay");
        let mut row = Vec::with_capacity(upto + 1);
        for j in 0..=upto {
            let task = &self.seq.tasks[j];
            let (train, test) = s.tracer.time("cl.eval.encode", || {
                (
                    model.represent(&task.train.inputs, j),
                    model.represent(&task.test.inputs, j),
                )
            });
            let preds = s.tracer.time("cl.eval.knn", || {
                knn_classify(&train, &task.train.labels, &test, self.eval_k)
            });
            row.push(accuracy(&preds, &task.test.labels));
        }
        s.tracer.exit(rid);
        let ok = s.rows.get(upto).is_some_and(|r| bits(r) == bits(&row));
        s.check(ok, || {
            format!("re-computed eval row {upto} differs from the run's")
        });
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

impl Method for TracedMethod<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn begin_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        train: &Dataset,
        rng: &mut StdRng,
    ) {
        if task_idx > 0 {
            // The weights are those the previous increment was evaluated
            // with: nothing touches the model between eval and here.
            self.replay_eval(model, task_idx - 1);
        }
        let id = self.t.borrow_mut().tracer.enter("cl.begin_task");
        self.inner.begin_task(model, task_idx, train, rng);
        self.t.borrow_mut().tracer.exit(id);
    }
    fn train_step(
        &mut self,
        model: &mut ContinualModel,
        opt: &mut dyn Optimizer,
        augs: &[Augmenter],
        batch: &Matrix,
        task_idx: usize,
        ws: &mut Workspace,
        rng: &mut StdRng,
    ) -> f32 {
        let id = self.t.borrow_mut().tracer.enter("cl.step");
        let loss = self
            .inner
            .train_step(model, opt, augs, batch, task_idx, ws, rng);
        self.t.borrow_mut().tracer.exit(id);
        loss
    }
    fn end_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        train: &Dataset,
        aug: &Augmenter,
        rng: &mut StdRng,
    ) {
        let cfg = self.inner.config().clone();
        let budget = cfg.per_task_budget.min(train.len());
        let (selected, scales, reps) = {
            let mut s = self.t.borrow_mut();
            let rid = s.tracer.enter("bench.replay");
            let reps = s.tracer.time("core.select.encode", || {
                model.represent(&train.inputs, task_idx)
            });
            let ctx = SelectionContext {
                reps: &reps,
                aug_view_std: None,
                cluster_hint: train.classes().len().max(1),
            };
            let mut sel_rng = rng.clone();
            let strategy: SelectionStrategy = cfg.selection;
            let selected = s.tracer.time("core.select.strategy", || {
                strategy.select(&ctx, budget, &mut sel_rng)
            });
            let scales = s.tracer.time("core.noise", || {
                noise_magnitudes(&reps, &selected, cfg.noise_neighbors)
            });
            s.tracer.exit(rid);
            (selected, scales, reps)
        };
        let before = self.inner.memory_len();
        let id = self.t.borrow_mut().tracer.enter("core.select");
        self.inner.end_task(model, task_idx, train, aug, rng);
        self.t.borrow_mut().tracer.exit(id);
        let added = &self.inner.memory().items()[before..];
        let ok = added.len() == selected.len()
            && added
                .iter()
                .zip(&selected)
                .zip(&scales)
                .all(|((item, &i), &r)| {
                    item.noise_scale.to_bits() == r.to_bits()
                        && item.stored_features.as_deref().map(bits) == Some(bits(reps.row(i)))
                });
        self.t.borrow_mut().check(ok, || {
            format!("re-computed selection of increment {task_idx} differs from the run's")
        });
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }
    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.inner.load_state(state)
    }
    fn replay_representations(&self) -> Option<(Matrix, Vec<u64>)> {
        self.inner.replay_representations()
    }
}

/// One traced seed: its result, spans and check counts.
struct TracedSeed {
    result: SeedResult,
    spans: Vec<Span>,
    checks: usize,
    failed: usize,
}

fn traced_seed(spec: &TrainSpec, cfg: &TrainConfig, seed: u64, origin: Instant) -> TracedSeed {
    let (seq, augs, mut model, method) = build(spec, seed);
    let t: Cell = Rc::new(RefCell::new(Shared {
        tracer: Tracer::new(origin, seed),
        open: Vec::new(),
        rows: Vec::new(),
        checks: 0,
        failed: 0,
    }));
    let mut source = TracedSource {
        seq: &seq,
        t: Rc::clone(&t),
    };
    let mut observer = TracedObserver { t: Rc::clone(&t) };
    let mut traced = TracedMethod {
        inner: method,
        seq: &seq,
        eval_k: cfg.eval_k,
        t: Rc::clone(&t),
    };
    let run_id = t.borrow_mut().tracer.enter("cl.run");
    let t0 = Instant::now();
    let run = RunBuilder::new(cfg)
        .observer(&mut observer)
        .run(
            &mut traced,
            &mut model,
            &mut source,
            &augs,
            &mut seeded(seed + 2000),
        )
        .expect("traced training run");
    let secs = t0.elapsed().as_secs_f64();
    t.borrow_mut().tracer.exit(run_id);
    // The last row has no following begin_task: re-compute it here.
    traced.replay_eval(&model, seq.len() - 1);
    drop((traced, observer, source));
    let shared = Rc::try_unwrap(t)
        .unwrap_or_else(|_| panic!("traced wrappers still alive"))
        .into_inner();
    TracedSeed {
        result: SeedResult::of(seed, &run, secs),
        spans: shared.tracer.finish(),
        checks: shared.checks,
        failed: shared.failed,
    }
}

/// Runs the traced training half: `seeds` in the fan-out shape of
/// [`Plain`], with every layer boundary recorded.
pub fn run_traced(spec: &TrainSpec, seeds: &[u64], origin: Instant) -> TrainOutcome {
    let cfg = spec.config();
    let mut unit_s = Vec::new();
    let mut traced: Vec<TracedSeed> = Vec::new();
    for chunk in seeds.chunks(spec.fanout.max(1)) {
        let t0 = Instant::now();
        let out = if spec.fanout <= 1 {
            vec![traced_seed(spec, &cfg, chunk[0], origin)]
        } else {
            edsr_par::par_map_collect(chunk.len(), |i| traced_seed(spec, &cfg, chunk[i], origin))
        };
        unit_s.push(t0.elapsed().as_secs_f64());
        traced.extend(out);
    }
    let results: Vec<SeedResult> = traced.iter().map(|t| t.result.clone()).collect();
    let (mut checks, mut failed) = check_recorded(spec, &results);
    let mut spans = Vec::new();
    for t in traced {
        checks += t.checks;
        failed += t.failed;
        spans.extend(t.spans);
    }
    TrainOutcome {
        setup_s: Vec::new(),
        unit_s,
        seeds: results,
        spans,
        checks,
        failed,
    }
}
