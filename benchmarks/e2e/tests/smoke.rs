//! Runs the program itself: two seconds of every workload, untraced and
//! traced, each in a process of its own as `run.sh` does it.

use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use lcc_e2e::json::metric_value;
use lcc_e2e::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

/// One benchmark process at a time: each already uses every core, and the
/// smoke test asserts on its own wall time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock left nothing half-done.
    ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn start(extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_lcc-e2e"))
        .args(["--seconds", "2", "--seed", "2021"])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("the benchmark binary starts")
}

fn finish(child: Child) -> (Option<i32>, String) {
    let output = child.wait_with_output().expect("the benchmark binary ends");
    (output.status.code(), String::from_utf8(output.stdout).expect("utf-8 output"))
}

fn run(extra: &[&str]) -> (Option<i32>, String) {
    finish(start(extra))
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

#[test]
fn smoke_every_workload_prints_every_metric_finite() {
    let _serial = serial();
    let t0 = Instant::now();
    for workload in &WORKLOADS {
        // The untraced and the traced run side by side: the smoke run looks
        // at what is printed, not at how fast it went.
        let both = ["0", "1"].map(|trace| start(&["--workload", workload.name, "--trace", trace]));
        let expected = [
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect::<Vec<_>>(),
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect::<Vec<_>>(),
        ];
        for ((trace, child), expected) in ["0", "1"].into_iter().zip(both).zip(expected) {
            let (code, stdout) = finish(child);
            assert_eq!(code, Some(0), "{} --trace {trace}:\n{stdout}", workload.name);
            // The line is this program's own print: its four keys in their
            // order, then one `"name": {"value": …, "unit": "…"}` per metric.
            let line = result_line(&stdout);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            assert!(line.contains(", \"failed\": 0, \"metrics\": {") && line.ends_with("}}}"));
            assert_eq!(line.matches("\"value\": ").count(), expected.len(), "{line}");
            for (name, unit) in expected {
                let value = metric_value(line, name);
                assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
                let entry =
                    format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", value.unwrap());
                assert!(line.contains(&entry), "{entry} is not in {line}");
                if trace == "0" {
                    assert!(value.unwrap() > 0.0, "{name} must never read 0");
                }
            }
        }
    }
    let took = t0.elapsed().as_secs_f64();
    assert!(took < 60.0, "the smoke run took {took:.1} s");
}

#[test]
fn self_test_counts_both_injected_faults() {
    let _serial = serial();
    let (code, stdout) = run(&["--workload", "codec", "--self-test"]);
    assert_eq!(code, Some(2), "a run with failed requests exits with code 2:\n{stdout}");
    let line = result_line(&stdout);
    assert!(line.starts_with("{\"correct\": false, ") && line.contains(", \"failed\": 2, "));
    assert!(stdout.contains("self-test: injected 2 faults, counted 2"));
}

#[test]
fn exact_metrics_repeat_for_a_seed_and_differ_between_seeds() {
    let _serial = serial();
    let ratio = |seed: &str| {
        let (code, stdout) = run(&["--workload", "ingest", "--seed", seed]);
        assert_eq!(code, Some(0), "{stdout}");
        metric_value(result_line(&stdout), "ratio").expect("a ratio").to_bits()
    };
    let first = ratio("2021");
    assert_eq!(first, ratio("2021"));
    assert_ne!(first, ratio("7"));
}
