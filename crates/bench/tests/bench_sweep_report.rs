//! `bench_sweep`'s stdout is its whole report: every row family is in it,
//! and a field of one 64 × 64 tile has no per-tile rows to print.

use std::process::Command;

fn report(size: &str) -> String {
    let run = Command::new(env!("CARGO_BIN_EXE_bench_sweep"))
        .args(["--size", size])
        .output()
        .expect("bench_sweep starts");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "--size {size}: {stderr}");
    String::from_utf8(run.stdout).expect("the report is UTF-8")
}

/// Whether `report` has a table row whose first cell is `name`.
fn has_row(report: &str, name: &str) -> bool {
    report.lines().any(|line| line.starts_with(&format!("| {name} | ")))
}

#[test]
fn a_field_of_four_tiles_reports_every_row_family() {
    let report = report("128");
    assert!(report.starts_with("## bench_sweep — 128x128 "), "{report}");
    for codec in ["sz", "sz-rans8", "zfp", "mgard", "mgard-rans8"] {
        let throughput = report.lines().any(|line| {
            line.starts_with(&format!("| {codec} | ")) && line.split(" | ").count() == 4
        });
        assert!(throughput, "no throughput row for {codec}:\n{report}");
    }
    for layers in ["sz", "sz@64x64", "sz-rans8", "sz-rans8@64x64", "mgard", "mgard-rans8"] {
        let row = report.lines().find(|line| {
            line.starts_with(&format!("| {layers} | ")) && line.split(" | ").count() == 9
        });
        let row = row.unwrap_or_else(|| panic!("no encode-layer row {layers}:\n{report}"));
        // The per-tile rows carry a fixed cost; only `sz-rans8`'s a table share.
        let cells: Vec<&str> = row.trim_end_matches(" |").split(" | ").collect();
        assert_eq!(cells[7] != "—", layers.ends_with("@64x64"), "{row}");
        assert_eq!(cells[8] != "—", layers == "sz-rans8@64x64", "{row}");
    }
    assert!(report.contains("`*-rans8` streams overflowed the 12-bit rANS table"), "{report}");
    assert!(report.contains("| stage | seconds |"), "{report}");
    for stage in ["generate_field", "correlation_statistics_compute", "compress_sz", "total"] {
        assert!(has_row(&report, stage), "no stage row {stage}:\n{report}");
    }
    assert!(report.contains("ns/pair at one thread, parallel efficiency"), "{report}");
    assert!(report.contains("Predictor cost / codec cost"), "{report}");
}

#[test]
fn a_field_of_one_tile_prints_no_per_tile_row() {
    let report = report("64");
    assert!(has_row(&report, "sz") && has_row(&report, "sz-rans8"), "{report}");
    assert!(!report.contains("@64x64"), "{report}");
}
