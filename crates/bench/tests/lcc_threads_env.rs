//! `LCC_THREADS` as a tool input: `ThreadPoolConfig::auto` caches its answer
//! in a `OnceLock`, so the environment path is only testable from outside the
//! process. `bench_sweep` sizes its pool with `auto()` before it does
//! anything else.

use std::process::{Command, Output};

fn bench_sweep_under(lcc_threads: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_sweep"))
        .args(["--size", "64"])
        .env("LCC_THREADS", lcc_threads)
        .output()
        .expect("bench_sweep starts")
}

#[test]
fn an_unusable_lcc_threads_is_a_named_failure_and_an_empty_one_is_unset() {
    for bad in ["abc", "0", "-1", "2x"] {
        let run = bench_sweep_under(bad);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "LCC_THREADS={bad} was replaced by a default");
        assert!(
            stderr.contains(&format!("LCC_THREADS: cannot use {bad:?} as a thread count"))
                && stderr.contains("positive integer"),
            "LCC_THREADS={bad}: {stderr}"
        );
    }
    for unset_or_valid in ["", "2"] {
        let run = bench_sweep_under(unset_or_valid);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "LCC_THREADS={unset_or_valid:?}: {stderr}");
    }
}
