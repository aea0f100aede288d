//! Smoke of every workload on the `test` preset: each prints every
//! declared metric, untraced and traced, with all output checks passing.

use edsr_perfbench::{run, workload, Scale, WORKLOADS};

/// Metric names declared in `BENCHMARK.json`, per run kind.
fn declared(kind: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = text.find(&format!("\"{kind}\"")).expect("metric list");
    let list = &text[start..];
    let list = &list[..list.find(']').expect("list end")];
    list.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or("")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for name in WORKLOADS {
        let w = workload(name, Scale::Smoke, 1.0).expect("known workload");
        for (trace, kind) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&w, 3, 1.0, trace);
            assert!(report.correct, "{name} trace={trace}: output checks failed");
            assert_eq!(report.failed, 0, "{name} trace={trace}: failed operations");
            assert!(report.attempted > 0);
            let got: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
            assert_eq!(got, declared(kind), "{name} trace={trace}: metric names");
            for (metric, value, _) in &report.metrics {
                assert!(value.is_finite(), "{name}: {metric} = {value}");
            }
            let line = report.final_line();
            assert!(
                line.starts_with(r#"{"correct":true,"attempted":"#),
                "{line}"
            );
            if trace {
                assert!(edsr_perfbench::trace::children_fit(&report.spans));
                assert!(!report.spans.is_empty());
            }
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(workload("nope", Scale::Full, 25.0).is_none());
}
