//! Figure 2 reproduction: example images of the datasets — 2D Gaussian
//! fields (single- and multi-range) and Miranda-proxy velocityx slices —
//! written as PGM grey-scale images.
//!
//! ```text
//! cargo run --release -p lcc-bench --bin figure2 -- [--size N] [--seed S] [--out DIR]
//! ```

use lcc_bench::CliOptions;
use lcc_grid::io::write_pgm;
use lcc_hydro::{MirandaProxy, MirandaProxyConfig, Problem};
use lcc_synth::{
    generate_multi_range, generate_single_range, GaussianFieldConfig, MultiRangeConfig,
};

fn main() {
    let opts = CliOptions::from_env(&["size", "seed", "out"], &["full-paper-scale"]);
    let paper = opts.preset(&["size"]).is_some();
    let size = if paper { 1028 } else { opts.get_count("size", 256, 2) };
    let seed = opts.get_u64("seed", 2021);
    let dir = opts.output_dir();
    std::fs::create_dir_all(&dir).expect("create output directory");

    println!("== Figure 2: dataset example images (size={size}, seed={seed}) ==");

    let single_small = generate_single_range(&GaussianFieldConfig::new(size, size, 4.0, seed));
    let single_large = generate_single_range(&GaussianFieldConfig::new(size, size, 32.0, seed));
    let multi = generate_multi_range(&MultiRangeConfig::two_ranges(size, size, 4.0, 32.0, seed));

    let hydro_cfg = if paper {
        MirandaProxyConfig::paper_scale(Problem::KelvinHelmholtz, seed)
    } else {
        MirandaProxyConfig {
            ny: size.min(192),
            nx: size.min(192),
            n_slices: 2,
            steps_between_snapshots: 80,
            problem: Problem::KelvinHelmholtz,
            seed,
        }
    };
    let slices = MirandaProxy::new(hydro_cfg).generate_velocityx_slices();

    let outputs = [
        ("figure2_gaussian_short_range.pgm", &single_small),
        ("figure2_gaussian_long_range.pgm", &single_large),
        ("figure2_gaussian_multi_range.pgm", &multi),
        ("figure2_miranda_velocityx_early.pgm", &slices[0]),
        ("figure2_miranda_velocityx_late.pgm", &slices[slices.len() - 1]),
    ];
    for (name, field) in outputs {
        let path = dir.join(name);
        write_pgm(field, &path).expect("write PGM");
        let s = field.summary();
        println!(
            "{:<45} shape={:?} min={:+.3} max={:+.3}",
            path.display().to_string(),
            field.shape(),
            s.min,
            s.max
        );
    }
}
