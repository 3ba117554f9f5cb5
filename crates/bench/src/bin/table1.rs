//! Table I reproduction: the compressor / software inventory of the study,
//! generated from the compressor registry's self-descriptions together with
//! the analysis components this repository implements in place of the
//! paper's Python/R stack.

use lcc_bench::CliOptions;
use lcc_core::default_registry;

fn main() {
    // The table has no options: any argument is a mistake.
    CliOptions::from_env(&[], &[]);
    println!("== Table I: compressors and software used for the study ==");
    println!("{:<12} {:<16} purpose", "software", "version");
    println!("{:-<12} {:-<16} {:-<60}", "", "", "");
    for info in default_registry().infos() {
        println!("{:<12} {:<16} {}", info.name, info.version, info.description);
    }
    // The analysis components that replace gstat / numpy / LibPressio.
    let extra = [
        (
            "lcc-geostat",
            env!("CARGO_PKG_VERSION"),
            "variogram range estimation (replaces gstat 2.0-7)",
        ),
        (
            "lcc-linalg",
            env!("CARGO_PKG_VERSION"),
            "least-squares / SVD fitting (replaces numpy 1.21.1 polyfit)",
        ),
        (
            "lcc-pressio",
            env!("CARGO_PKG_VERSION"),
            "compressor abstraction and metrics (replaces LibPressio 0.70.0)",
        ),
        (
            "lcc-synth",
            env!("CARGO_PKG_VERSION"),
            "squared-exponential Gaussian random field generation",
        ),
        (
            "lcc-hydro",
            env!("CARGO_PKG_VERSION"),
            "compressible-flow Miranda substitute (velocityx slices)",
        ),
    ];
    for (name, version, purpose) in extra {
        println!("{name:<12} {version:<16} {purpose}");
    }
}
