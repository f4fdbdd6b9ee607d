//! Runs every workload at smoke sizes in both modes and checks the result
//! line against the metric names declared in `BENCHMARK.json`, so the
//! harness and its declaration cannot drift apart.

use std::process::Command;

const WORKLOADS: [&str; 3] = [
    "laplace-grid-64k",
    "helmholtz-scatter-16k",
    "laplace-dist4-64k",
];

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_solverbench"))
}

/// Metric names of one section of `BENCHMARK.json`, read without a JSON
/// parser: every `"name": "..."` between the section key and the next
/// closing bracket.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let names = declared(section);
        assert!(!names.is_empty());
        for w in WORKLOADS {
            let out = bench()
                .args(["--workload", w, "--seed", "5", "--seconds", "1"])
                .args(["--trace", &trace.to_string(), "--smoke"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{w} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, "), "{last}");
            for name in &names {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{w} trace {trace}: {name} missing from {last}"
                );
            }
            assert_eq!(
                last.matches("\"value\": ").count(),
                names.len(),
                "{w} trace {trace}: undeclared metrics in {last}"
            );
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload laplace-grid-64k --seed 1 --seconds 1",
        "--workload laplace-grid-64k --seed x --seconds 1 --trace 0",
    ] {
        let out = bench()
            .args(args.split(' '))
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
