//! `lcc-e2e`: the repo's end-to-end benchmark. One closed-loop workload
//! per process; `run.sh` builds this and runs it. See README.md.

use std::path::PathBuf;
use std::process::ExitCode;

use lcc_e2e::metrics::{self, END_TO_END, PER_LAYER, RUN_SECONDS};
use lcc_e2e::workloads::{self, Config, Report};
use lcc_e2e::{alloc, calibrate, harness, json, surface, trace};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "\
usage: lcc-e2e --workload <select|codec|region|ingest> [--seed N] [--seconds S] [--trace 0|1]
               [--threads T] [--self-test] [--out-dir DIR]
       lcc-e2e --calibrate [--seed N] [--seconds S] [--trace 0|1] [--threads T]
       lcc-e2e --benchmark-json";

/// Exit code of a run whose requests failed verification.
const EXIT_FAILED_REQUESTS: u8 = 2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    self_test: bool,
    out_dir: Option<PathBuf>,
    calibrate: bool,
    benchmark_json: bool,
}

/// `T`: `LCC_THREADS` if set, else the smaller of the CPU count and 4.
fn default_threads() -> Result<usize, String> {
    match std::env::var("LCC_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("LCC_THREADS={v:?} is not a positive integer")),
        Err(_) => Ok(std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)),
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2021,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        threads: default_threads()?,
        self_test: false,
        out_dir: None,
        calibrate: false,
        benchmark_json: false,
    };
    fn value<T: std::str::FromStr>(
        flag: &str,
        argv: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        let raw = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse().map_err(|_| format!("{flag}: cannot read {raw:?}"))
    }
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, &mut argv)?),
            "--seed" => args.seed = value(&flag, &mut argv)?,
            "--seconds" => args.seconds = value(&flag, &mut argv)?,
            "--trace" => {
                args.trace = match value::<u8>(&flag, &mut argv)? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--threads" => args.threads = value(&flag, &mut argv)?,
            "--out-dir" => args.out_dir = Some(PathBuf::from(value::<String>(&flag, &mut argv)?)),
            "--self-test" => args.self_test = true,
            "--calibrate" => args.calibrate = true,
            "--benchmark-json" => args.benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(args)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were taken on; `run.sh` passes the two it can see.
fn fingerprint(cfg: &Config) -> Vec<(&'static str, String)> {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    vec![
        ("workload", cfg.workload.clone()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("threads", cfg.threads.to_string()),
        ("cpus", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        ("cpu_model", cpu_model()),
        ("simd_level", surface::simd_level().to_string()),
        ("rustc", env("LCC_E2E_RUSTC")),
        ("commit", env("LCC_E2E_COMMIT")),
    ]
}

fn end_to_end_value(name: &str, report: &Report) -> f64 {
    let s = &report.summary;
    match name {
        "setup_s" => report.setup_s,
        "req_per_s" => s.req_per_s,
        "mb_per_s" => s.mb_per_s,
        "p50_ms" => s.p50_ms,
        "p90_ms" => s.p90_ms,
        "ratio" => s.ratio,
        "peak_heap_mb" => report.peak_heap_mb,
        other => unreachable!("{other} has no source"),
    }
}

fn metrics_json(rows: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::escape(name),
                json::number(*value),
                json::escape(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Self time by span name, as a share of the time requests spent in
/// service (their duration less their wait in the queue).
fn print_span_table(report: &Report) {
    let Some(request) = report.spans.get("request") else { return };
    let waited = report.spans.get("par.queue_wait").map_or(0, |t| t.dur_ns);
    let service = (request.dur_ns - waited).max(1) as f64;
    println!("# spans: name, count, self ms, share of service time");
    for (name, t) in &report.spans {
        let share = if *name == "par.queue_wait" { 0.0 } else { t.self_ns as f64 / service };
        println!(
            "# span {name:<28} {:>8} {:>12.3} {:>7.4}",
            t.count,
            t.self_ns as f64 / 1e6,
            share
        );
    }
}

fn write_files(
    dir: &PathBuf,
    cfg: &Config,
    report: &Report,
    result_json: &str,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let print: Vec<String> = fingerprint(cfg)
        .iter()
        .map(|(k, v)| format!("  {}: {},\n", json::escape(k), json::escape(v)))
        .collect();
    let header = print.concat();
    let suffix = if cfg.trace { "_traced" } else { "" };
    let result = format!("{{\n{header}  \"result\": {result_json}\n}}\n");
    let path = dir.join(format!("result_{}{suffix}.json", cfg.workload));
    std::fs::write(&path, result).map_err(|e| format!("{}: {e}", path.display()))?;
    if cfg.trace {
        let tracers: Vec<&trace::Tracer> = report.tracers.iter().collect();
        let path = dir.join(format!("trace_{}.json", cfg.workload));
        std::fs::write(&path, trace::to_json(&header, &tracers))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn run_workload(args: &Args, workload: String) -> Result<ExitCode, String> {
    // Layers that size their own pools read this; set before any thread
    // exists.
    std::env::set_var("LCC_THREADS", args.threads.to_string());
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: args.threads,
        self_test: args.self_test,
    };
    let print: Vec<String> = fingerprint(&cfg).iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    println!("# lcc-e2e {}", print.join(" "));

    let mut report = workloads::run(&cfg)?;
    report.layers.set("bench.peak_rss_mb", harness::peak_rss_mb());
    report.layers.set("bench.setup_peak_heap_mb", alloc::setup_peak_heap_mb());

    let rows: Vec<(&str, &str, f64)> = if cfg.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit, report.layers.get(m.name))).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit, end_to_end_value(m.name, &report))).collect()
    };
    for (name, unit, value) in &rows {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let s = &report.summary;
    if cfg.trace {
        print_span_table(&report);
    } else {
        // What the two latency percentiles stand on.
        println!(
            "# p50_ms and p90_ms over {} distinct requests, {} samples",
            s.distinct,
            s.attempted - s.failed
        );
    }
    println!(
        "# attempted {} failed {} fail_frac {}",
        s.attempted,
        s.failed,
        s.failed as f64 / s.attempted.max(1) as f64
    );
    if let Some(first) = &s.first_failure {
        println!("# first failure: {first}");
    }
    if cfg.self_test {
        println!("self-test: injected 2 faults, counted {}", s.failed);
    }

    let correct = s.failed == 0 && s.attempted >= 1;
    let result_json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        s.attempted,
        s.failed,
        metrics_json(&rows)
    );
    if let Some(dir) = &args.out_dir {
        write_files(dir, &cfg, &report, &result_json)?;
    }
    println!("{result_json}");
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(EXIT_FAILED_REQUESTS) })
}

fn main() -> ExitCode {
    // The clock's zero is the start of the process: `setup_s` is read off it.
    trace::now_ns();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lcc-e2e: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.benchmark_json {
        print!("{}", metrics::benchmark_json());
        Ok(ExitCode::SUCCESS)
    } else if args.calibrate {
        calibrate::run(&calibrate::Calibration {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            threads: args.threads,
        })
        .map(|()| ExitCode::SUCCESS)
    } else if let Some(workload) = args.workload.clone() {
        run_workload(&args, workload)
    } else {
        Err(format!("nothing to do\n{USAGE}"))
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("lcc-e2e: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_is_understood() {
        let a = parse("--workload region --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("region"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(metrics::WORKLOADS.iter().filter(|w| w.name == "region").count(), 1);
    }

    #[test]
    fn unreadable_values_are_errors_not_defaults() {
        assert!(parse("--seed abc").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds").is_err());
        assert!(parse("--wrkload select").is_err());
        assert!(parse("--workload select --threads 0").is_err());
        assert!(parse("--workload select --setup-reps 1").is_err());
    }
}
