//! `--calibrate`: run every workload five times on one seed, each in a
//! process of its own, and print median, quartiles and spread of every metric, with
//! the bound `BENCHMARK.json` should carry: the larger of the metric's
//! floor and three times its spread (distance between the quartiles as a
//! share of the median).

use std::collections::BTreeMap;
use std::process::Command;

use crate::json;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;

/// Runs per workload.
const RUNS: usize = 5;

pub struct Calibration {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

/// Run the benchmark once as a child process; its result line.
fn child(cal: &Calibration, workload: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cal.seed.to_string()])
        .args(["--seconds", &cal.seconds.to_string()])
        .args(["--trace", if cal.trace { "1" } else { "0" }])
        .args(["--threads", &cal.threads.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: exit {:?}", output.status.code()));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    Ok(stdout.lines().last().ok_or("child printed nothing")?.to_string())
}

pub fn run(cal: &Calibration) -> Result<(), String> {
    let floors: BTreeMap<&str, f64> = END_TO_END.iter().map(|m| (m.name, m.floor)).collect();
    let mut worst: BTreeMap<&str, f64> = BTreeMap::new();
    let names: Vec<&str> = if cal.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    println!(
        "# calibrate: {RUNS} runs per workload, seed {}, {} s, trace {}, T = {}",
        cal.seed,
        cal.seconds,
        u8::from(cal.trace),
        cal.threads
    );
    println!(
        "{:<8} {:<34} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "exact"
    );
    for workload in &WORKLOADS {
        let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for _ in 0..RUNS {
            let line = child(cal, workload.name)?;
            for &name in &names {
                let v = json::metric_value(&line, name)
                    .ok_or_else(|| format!("{}: no value of {name}", workload.name))?;
                series.entry(name).or_default().push(v);
            }
        }
        for (name, values) in &series {
            let [q1, _, q3] = stats::quartiles(values);
            let median = stats::median(values);
            let spread = if median != 0.0 { (q3 - q1) / median.abs() } else { 0.0 };
            let exact = values.iter().all(|v| v.to_bits() == values[0].to_bits());
            println!(
                "{:<8} {:<34} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>6}",
                workload.name,
                name,
                q1,
                median,
                q3,
                spread * 100.0,
                if exact { "yes" } else { "no" }
            );
            let slot = worst.entry(name).or_insert(0.0);
            *slot = slot.max(spread);
        }
    }
    if !cal.trace {
        println!("# bound = max(floor, 3 x worst spread over the workloads)");
        for (name, spread) in &worst {
            let floor = floors.get(name).copied().unwrap_or(0.0);
            println!(
                "{name:<34} floor {:>5.1}%  worst spread {:>6.2}%  bound {:>6.2}%",
                floor * 100.0,
                spread * 100.0,
                floor.max(3.0 * spread) * 100.0
            );
        }
    }
    Ok(())
}
