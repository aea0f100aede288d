//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <train-short|sweep-long|serve-open> --seed N --seconds S --trace 0|1
//! perfbench --record-digests <workload>
//! ```
//!
//! Prints a details line (host facts, sample counts, per-rung
//! accounting, per-layer table) and, last, the result line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. The details
//! and, for traced runs, the spans are also written to
//! `.bench_out/<workload>-seed<N>-trace<T>.json` in the working directory.

use std::process::ExitCode;

use edsr_perfbench::json::Obj;
use edsr_perfbench::{run, train, workload, Scale, WORKLOADS};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1\n       perfbench --record-digests <workload>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn record_digests(name: &str) -> ExitCode {
    let Some(mut w) = workload(name, Scale::Full, 0.0) else {
        return usage();
    };
    w.train.seeds = w.train.pool.len();
    let out = train::Plain::new(&w.train, w.train.draw_seeds(0)).finish();
    let mut rows = out.seeds.clone();
    rows.sort_by_key(|r| r.seed);
    for r in rows {
        println!(
            "    ({}, {:#018x}), // acc {:.2} fgt {:.2}",
            r.seed, r.digest, r.acc, r.fgt
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(name) = flag(&args, "--record-digests") {
        return record_digests(&name);
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        flag(&args, "--workload"),
        flag(&args, "--seed").and_then(|s| s.parse::<u64>().ok()),
        flag(&args, "--seconds").and_then(|s| s.parse::<f64>().ok()),
        flag(&args, "--trace").and_then(|s| s.parse::<u8>().ok()),
    ) else {
        return usage();
    };
    let Some(w) = workload(&name, Scale::Full, seconds) else {
        return usage();
    };
    let report = run(&w, seed, seconds, trace == 1);

    let mut file = Obj::new();
    file.obj("details", report.details.clone());
    file.value("result", report.final_line());
    if trace == 1 {
        file.value("spans", edsr_perfbench::trace::spans_json(&report.spans));
    }
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{name}-seed{seed}-trace{trace}.json"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, file.finish()))
    {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    println!("{}", report.details.finish());
    println!("{}", report.final_line());
    ExitCode::SUCCESS
}
