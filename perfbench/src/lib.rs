//! # edsr-perfbench
//!
//! The repository's benchmark: end-to-end metrics of whole workloads
//! (untraced) and per-layer metrics (from a separate traced run), with
//! every output checked. See `README.md` in this directory for why each
//! workload exists and which layer metric should move which end-to-end
//! metric on which workload.
//!
//! Every workload trains EDSR on cifar100-sim and then serves the model it
//! trained; the workloads differ in how they train and in what traffic
//! the server sees.

pub mod digests;
pub mod json;
pub mod pool;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod train;

use std::time::Instant;

use edsr_data::{cifar100_sim, test_sim};

use crate::json::Obj;
use crate::serve::{Mix, Rung, ServeSpec};
use crate::stats::{median, Pct};
use crate::train::{TrainOutcome, TrainSpec};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["train-short", "sweep-long", "serve-open"];

/// Full size (the benchmark) or a seconds-long smoke on the `test`
/// preset (the benchmark's own tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// cifar100-sim, recorded digests.
    Full,
    /// test-sim, tiny ladder, no recorded digests.
    Smoke,
}

/// One workload: a training half and a serving half.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name.
    pub name: &'static str,
    /// Training half.
    pub train: TrainSpec,
    /// Serving half.
    pub serve: ServeSpec,
}

/// Generator threads and connections: two, never more than the host's
/// cores.
fn generators() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// Requests whose inputs are always new: the embedding cache is
/// bypassed (every lookup misses). One kNN query per four embeds, as in
/// the repository's `serve_load` bench.
const MIX_FRESH: Mix = Mix {
    repeat: 0.0,
    knn: 0.2,
};

/// `serve_load`'s mix: one kNN query per four embeds, and one embed in
/// eight re-sends an input the server already embedded (a cache hit).
const MIX_CACHED: Mix = Mix {
    repeat: 0.1,
    knn: 0.2,
};

/// Continual runs of `train-short` (and `serve-open`) per second of
/// `--seconds`: 20 at 25 s, about 55 % of the run on the reference host.
const SHORT_RUNS_PER_S: f64 = 0.8;
/// Two-seed fan-outs of `sweep-long` per second of `--seconds`: 5 at
/// 25 s, about 60 % of the run on the reference host.
const LONG_FANOUTS_PER_S: f64 = 0.2;

/// The workload called `name` sized for runs of `seconds`, or `None`.
pub fn workload(name: &str, scale: Scale, seconds: f64) -> Option<Workload> {
    let full = scale == Scale::Full;
    let preset = if full { cifar100_sim() } else { test_sim() };
    let rung = |name, rate, share| Rung { name, rate, share };
    // `low` is window-bound (requests mostly alone), `high` the highest
    // rate that stayed below the knee on the reference host; each gets a
    // fifth of the run. The closed-loop step after them probes capacity.
    let ladder = if full {
        vec![rung("low", 200.0, 0.2), rung("high", 800.0, 0.2)]
    } else {
        vec![rung("low", 100.0, 0.5), rung("high", 300.0, 0.5)]
    };
    let serve = |mix: Mix| ServeSpec {
        generators: generators(),
        ladder: ladder.clone(),
        mix,
        passes: if full { 5 } else { 2 },
    };
    // Units drawn from a recorded pool: at most the pool's size.
    let units =
        |per_s: f64, pool: usize| (per_s * seconds).round().clamp(1.0, pool as f64) as usize;
    let short = TrainSpec {
        preset: preset.clone(),
        epochs: 1,
        seeds: if full {
            units(SHORT_RUNS_PER_S, digests::TRAIN_SHORT.len())
        } else {
            2
        },
        fanout: 1,
        pool: if full { digests::TRAIN_SHORT } else { &[] },
    };
    Some(match name {
        "train-short" => Workload {
            name: "train-short",
            train: short,
            serve: serve(MIX_FRESH),
        },
        "sweep-long" => Workload {
            name: "sweep-long",
            train: TrainSpec {
                preset,
                epochs: if full { 16 } else { 2 },
                seeds: if full {
                    2 * units(LONG_FANOUTS_PER_S, digests::SWEEP_LONG.len() / 2)
                } else {
                    2
                },
                fanout: 2,
                pool: if full { digests::SWEEP_LONG } else { &[] },
            },
            serve: serve(MIX_FRESH),
        },
        "serve-open" => Workload {
            name: "serve-open",
            train: short,
            serve: serve(MIX_CACHED),
        },
        _ => return None,
    })
}

/// Non-finite values (a failed request reaching a percentile) are
/// reported as this many µs: far beyond any limit, still a JSON number.
const FAILED_US: f64 = 1e9;

fn us(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        FAILED_US
    }
}

/// A benchmark run's result: the final line plus the details around it.
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (requests, checks).
    pub attempted: usize,
    /// Operations failed (errors, sheds, wrong answers, mismatches).
    pub failed: usize,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host facts, sample counts, per-rung accounting, span table.
    pub details: Obj,
    /// Spans of the traced run, for export.
    pub spans: Vec<trace::Span>,
}

impl Report {
    /// The contract's final line.
    pub fn final_line(&self) -> String {
        let mut metrics = Obj::new();
        for &(name, value, unit) in &self.metrics {
            let mut m = Obj::new();
            m.num("value", value);
            m.str("unit", unit);
            metrics.obj(name, m);
        }
        let mut o = Obj::new();
        o.bool("correct", self.correct);
        o.int("attempted", self.attempted as u64);
        o.int("failed", self.failed as u64);
        o.obj("metrics", metrics);
        o.finish()
    }
}

/// Host facts recorded with every result.
pub fn host_facts() -> Obj {
    let mut h = Obj::new();
    h.int(
        "nproc",
        std::thread::available_parallelism().map_or(1, usize::from) as u64,
    );
    h.int("configured_threads", edsr_par::configured_threads() as u64);
    h.str(
        "edsr_threads_env",
        &std::env::var("EDSR_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    h.int("pool_workers", edsr_par::pool_workers() as u64);
    h.str("isa_detected", edsr_tensor::simd::detect().name());
    h.str("isa_active", edsr_tensor::simd::active_isa().name());
    h.str("git_rev", &git_rev());
    h
}

/// The checkout's commit, read from `.git` when there is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown (no .git in the checkout)".into()
    } else {
        rev.into()
    }
}

fn pct_obj(p: Pct) -> Obj {
    let mut o = Obj::new();
    o.num("value", us(p.value));
    o.num("pct", p.pct);
    o.int("n", p.n as u64);
    o
}

fn train_details(t: &TrainOutcome) -> Obj {
    let mut o = Obj::new();
    let seeds: Vec<String> = t
        .seeds
        .iter()
        .map(|s| format!("{}:{:.2}/{:.2}:{:#018x}", s.seed, s.acc, s.fgt, s.digest))
        .collect();
    o.strs("seeds(acc/fgt:digest)", &seeds);
    o.nums("unit_s", &t.unit_s);
    o.nums("setup_s", &t.setup_s);
    o.int("checks", t.checks as u64);
    o.int("failed", t.failed as u64);
    o
}

/// Runs workload `w` once. `trace` selects the per-layer run.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut details = Obj::new();
    details.str("workload", w.name);
    details.int("seed", seed);
    details.num("seconds", seconds);
    details.bool("trace", trace);
    details.obj("host", host_facts());

    let mut seeds = w.train.draw_seeds(seed);
    if trace {
        // The traced pass re-trains the first half of the units; only that
        // half runs untraced too, so a traced run trains about as much as
        // an untraced one.
        let unit = w.train.fanout.max(1);
        seeds.truncate((seeds.len().div_ceil(unit) / 2).max(1) * unit);
    }
    // Training units and serving passes alternate, so both halves sample
    // the host over the whole run rather than one stretch of it.
    let mut trainer = train::Plain::new(&w.train, seeds.clone());
    trainer.unit();
    let snapshot = trainer.snapshot().expect("first unit captures").clone();
    let mut session = serve::Session::new(&w.serve, &snapshot, seed, seconds);
    let (units, passes) = (trainer.remaining(), session.remaining());
    for p in 0..passes {
        session.pass();
        for _ in units * p / passes..units * (p + 1) / passes {
            trainer.unit();
        }
    }
    let plain = trainer.finish();
    let served = session.finish();
    let mut attempted = plain.checks;
    let mut failed = plain.failed;
    let mut wrong = plain.failed;
    let mut rungs = Obj::new();
    for r in &served.rungs {
        let sum = |f: fn(&serve::RungResult) -> usize| r.passes.iter().map(f).sum::<usize>();
        attempted += sum(|p| p.attempted);
        failed += sum(|p| p.failed);
        wrong += sum(|p| p.wrong);
        let per_pass =
            |f: &dyn Fn(&serve::RungResult) -> f64| r.passes.iter().map(f).collect::<Vec<_>>();
        let mut o = Obj::new();
        o.num("offered_rps", r.pooled.rate);
        o.nums("achieved_rps", &per_pass(&|p| p.achieved_rps));
        o.int("attempted", sum(|p| p.attempted) as u64);
        o.int("succeeded", sum(|p| p.succeeded) as u64);
        o.int("failed", sum(|p| p.failed) as u64);
        o.nums(
            "meets_limit",
            &per_pass(&|p| f64::from(u8::from(p.meets_limit))),
        );
        // Every pass holds the same request counts (exact mix shares).
        o.int("embed_n_per_pass", r.passes[0].embed_us.len() as u64);
        o.int("knn_n_per_pass", r.passes[0].knn_us.len() as u64);
        for q in [50.0, serve::TAIL] {
            o.nums(
                &format!("embed_p{q}_us_per_pass"),
                &per_pass(&|p| p.embed(q).value),
            );
            o.nums(
                &format!("knn_p{q}_us_per_pass"),
                &per_pass(&|p| p.knn(q).value),
            );
        }
        for q in [50.0, 90.0, 99.0] {
            o.obj(&format!("embed_p{q}_us_pooled"), pct_obj(r.pooled.embed(q)));
            o.obj(&format!("knn_p{q}_us_pooled"), pct_obj(r.pooled.knn(q)));
        }
        o.obj("late_ms_p99_pooled", pct_obj(r.pooled.late(99.0)));
        o.num("late_ms_max", r.pooled.late(100.0).value);
        rungs.obj(r.pooled.name, o);
    }
    let mut closed = Obj::new();
    let sum = |f: fn(&serve::RungResult) -> usize| served.closed.iter().map(f).sum::<usize>();
    attempted += sum(|p| p.attempted);
    failed += sum(|p| p.failed);
    wrong += sum(|p| p.wrong);
    closed.int("attempted", sum(|p| p.attempted) as u64);
    closed.int("succeeded", sum(|p| p.succeeded) as u64);
    closed.int("failed", sum(|p| p.failed) as u64);
    // Capacity of the two connections, per pass: too noisy on a shared
    // host to gate (see README), so a details figure.
    closed.nums(
        "achieved_rps",
        &served
            .closed
            .iter()
            .map(|r| r.achieved_rps)
            .collect::<Vec<_>>(),
    );
    details.obj("train", train_details(&plain));
    details.obj("rungs", rungs);
    details.obj("closed", closed);
    // Only checks that the `high` rung still holds: it sits below the
    // knee, so this reads the `high` rate until a change pushes that rung
    // over the limit. Not a capacity figure (`closed.achieved_rps` is).
    details.nums("max_rate_rps_per_pass", &served.max_rate_rps);

    let low = served.rungs.first().expect("ladder");
    let mut spans = Vec::new();
    let metrics = if !trace {
        vec![
            (
                "setup_s",
                median(&plain.setup_s) + median(&served.setup_s),
                "s",
            ),
            ("run_s", stats::mean(&plain.unit_s), "s"),
            (
                "acc_pct",
                stats::mean(&plain.seeds.iter().map(|s| s.acc).collect::<Vec<_>>()),
                "%",
            ),
            (
                "fgt_pct",
                stats::mean(&plain.seeds.iter().map(|s| s.fgt).collect::<Vec<_>>()),
                "%",
            ),
            ("embed_p50_us.low", us(low.embed(50.0)), "us"),
        ]
    } else {
        let (par_busy_share, occupied) = train::pool_share(&w.train, &seeds);
        attempted += occupied.checks;
        failed += occupied.failed;
        wrong += occupied.failed;
        let origin = Instant::now();
        let traced = train::run_traced(&w.train, &seeds, origin);
        attempted += traced.checks;
        failed += traced.failed;
        wrong += traced.failed;
        // The traced seeds must reproduce the untraced ones bit for bit.
        let (c, f) = train::check_repeats(&traced.seeds, &plain.seeds);
        attempted += c;
        failed += f;
        wrong += f;
        let fit = trace::children_fit(&traced.spans);
        attempted += 1;
        if !fit {
            eprintln!("check failed: child spans exceed their parent");
            failed += 1;
            wrong += 1;
        }
        let split = serve::layer_split(&w.serve, &snapshot, &served);
        attempted += split.attempted;
        failed += split.failed;
        wrong += split.wrong;
        details.obj("train_traced", train_details(&traced));
        details.obj("layers", layer_table(&traced.spans));
        let m = layer_metrics(
            w.train.fanout,
            &plain,
            &traced,
            par_busy_share,
            &served,
            &split,
        );
        spans = traced.spans;
        m
    };
    Report {
        correct: wrong == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        details,
        spans,
    }
}

fn layer_table(spans: &[trace::Span]) -> Obj {
    let mut t = Obj::new();
    for row in trace::table(spans) {
        let mut o = Obj::new();
        o.int("count", row.count as u64);
        o.num("inclusive_s", row.inclusive_s);
        o.num("self_s", row.self_s);
        o.num("children_s", row.children_s);
        // The part of the parent no child span covers.
        o.num("unattributed_s", row.inclusive_s - row.children_s);
        t.obj(&row.path, o);
    }
    t
}

/// Per-layer metrics of the traced run (per continual run: summed over
/// the run's seeds, divided by the seed count).
fn layer_metrics(
    fanout: usize,
    plain: &TrainOutcome,
    traced: &TrainOutcome,
    par_busy_share: f64,
    served: &serve::ServeOutcome,
    split: &serve::LayerSplit,
) -> Vec<(&'static str, f64, &'static str)> {
    use trace::{busy, count, durations_us};
    let s = &traced.spans;
    let n = traced.seeds.len() as f64;
    let per = |name: &str| busy(s, name) / n;
    let replay = busy(s, "bench.replay");
    // Each seed's run wall time without the benchmark's re-computations.
    let seed_wall: Vec<f64> = traced
        .seeds
        .iter()
        .map(|r| {
            let rep: f64 = s
                .iter()
                .filter(|x| x.lane == r.seed && x.name == "bench.replay")
                .map(trace::Span::secs)
                .sum();
            r.run_s - rep
        })
        .collect();
    let base = busy(s, "cl.run") - replay;
    let runner_self: f64 = trace::table(s)
        .iter()
        .filter(|r| r.path == "cl.run" || r.path == "cl.run/cl.task")
        .map(|r| r.self_s)
        .sum();
    let steps = stats::sorted(durations_us(s, "cl.step"));
    // Seeds that ran side by side; one after another, all the run's seeds.
    let group = if fanout > 1 { fanout } else { seed_wall.len() };
    let imbalance: Vec<f64> = seed_wall
        .chunks(group)
        .map(|c| c.iter().copied().fold(0.0, f64::max) / stats::mean(c))
        .collect();
    // Traced units, without their re-computations, against untraced units
    // of the same seeds. Means, as for `run_s`: unit times are bimodal.
    let traced_units: Vec<f64> = seed_wall
        .chunks(fanout.max(1))
        .map(|c| c.iter().copied().fold(0.0, f64::max))
        .collect();
    let overhead = (stats::mean(&traced_units) / stats::mean(&plain.unit_s) - 1.0) * 100.0;

    let high = served.rungs.last().expect("ladder");
    let st = &served.stats;
    let lookups = st.cache_hits + st.cache_misses;
    let late_max = served
        .rungs
        .iter()
        .map(|r| r.pooled.late(100.0).value)
        .fold(0.0, f64::max);
    vec![
        ("cl.step.count", count(s, "cl.step") as f64 / n, "count"),
        ("cl.step.p50_us", stats::pct(&steps, 50.0).value, "us"),
        ("cl.step.p99_us", stats::pct(&steps, 99.0).value, "us"),
        ("cl.step.busy_s", per("cl.step"), "s"),
        ("cl.begin_task.busy_s", per("cl.begin_task"), "s"),
        ("core.select.busy_s", per("core.select"), "s"),
        ("core.select.encode_s", per("core.select.encode"), "s"),
        ("core.select.strategy_s", per("core.select.strategy"), "s"),
        ("core.noise.busy_s", per("core.noise"), "s"),
        ("cl.eval.busy_s", per("cl.eval"), "s"),
        ("cl.eval.encode_s", per("cl.eval.encode"), "s"),
        ("cl.eval.knn_s", per("cl.eval.knn"), "s"),
        ("cl.eval.cells", count(s, "cl.eval.knn") as f64 / n, "count"),
        (
            "data.fetch.count",
            count(s, "data.fetch") as f64 / n,
            "count",
        ),
        ("data.fetch.busy_s", per("data.fetch"), "s"),
        ("cl.runner.self_s", runner_self / n, "s"),
        ("cl.share.base_s", base / n, "s"),
        ("cl.step.share", busy(s, "cl.step") / base, "ratio"),
        ("cl.eval.share", busy(s, "cl.eval") / base, "ratio"),
        ("par.busy_share", par_busy_share, "ratio"),
        ("sweep.imbalance", median(&imbalance), "ratio"),
        (
            "serve.engine.embed.p50_us",
            us(split.engine_embed_p50.value),
            "us",
        ),
        (
            "serve.engine.embed.p99_us",
            us(split.engine_embed_tail.value),
            "us",
        ),
        (
            "serve.engine.knn.p50_us",
            us(split.engine_knn_p50.value),
            "us",
        ),
        (
            "serve.batcher.embed.p50_us",
            us(split.batcher_embed_p50),
            "us",
        ),
        (
            "serve.batcher.embed.p99_us",
            us(split.batcher_embed_tail.value),
            "us",
        ),
        (
            "serve.wire.embed.p50_us",
            us(high.embed(50.0)) - us(split.batcher_embed_p50),
            "us",
        ),
        (
            "serve.wire.knn.p50_us",
            us(high.knn(50.0)) - us(split.engine_knn_p50.value),
            "us",
        ),
        ("serve.batch.count", st.batches as f64, "count"),
        (
            "serve.batch.mean",
            st.batched_requests as f64 / (st.batches.max(1)) as f64,
            "count",
        ),
        ("serve.batch.max", st.max_batch as f64, "count"),
        ("serve.cache.lookups", lookups as f64, "count"),
        (
            "serve.cache.hit_ratio",
            st.cache_hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        (
            "serve.rejected",
            (st.rejected_deadline + st.rejected_overload) as f64,
            "count",
        ),
        ("loadgen.late_ms.p99", high.pooled.late(99.0).value, "ms"),
        ("loadgen.late_ms.max", late_max, "ms"),
        ("trace.overhead_pct", overhead, "%"),
    ]
}
