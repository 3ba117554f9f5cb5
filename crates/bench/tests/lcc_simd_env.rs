//! `LCC_SIMD` as a tool input: `simd_level` caches its answer in a
//! `OnceLock`, so the environment path is only testable from outside the
//! process. `bench_sweep` reads the level before it reports anything.

use std::process::{Command, Output};

fn bench_sweep_under(lcc_simd: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_sweep"))
        .args(["--size", "64"])
        .env("LCC_SIMD", lcc_simd)
        .output()
        .expect("bench_sweep starts")
}

#[test]
fn only_off_and_avx2_name_a_tier_and_an_empty_value_is_unset() {
    for bad in ["bogus", "sse4", "sse4.1", "scalar"] {
        let run = bench_sweep_under(bad);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "LCC_SIMD={bad} was accepted");
        assert!(
            stderr.contains(&format!("LCC_SIMD={bad} ")) && stderr.contains("off|avx2"),
            "LCC_SIMD={bad}: {stderr}"
        );
    }
    for unset_or_valid in ["", "off", "avx2"] {
        let run = bench_sweep_under(unset_or_valid);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "LCC_SIMD={unset_or_valid:?}: {stderr}");
    }
}
