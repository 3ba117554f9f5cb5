//! The field families the kernel tests (spectrum oracle, variogram
//! reference) run over: the study's inputs plus the structured extremes.

use lcc_grid::Field2D;
use lcc_hydro::{MirandaProxy, MirandaProxyConfig, Problem};
use lcc_synth::{generate_single_range, GaussianFieldConfig};

/// Side of every family field: two 64-windows, four 32-windows per axis.
const N: usize = 128;

/// Uniform white noise on [-1, 1).
pub(crate) fn white_noise(ny: usize, nx: usize, seed: u64) -> Field2D {
    let mut s = seed | 1;
    Field2D::from_fn(ny, nx, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) * 2.0 - 1.0
    })
}

/// GRF ranges {2, 6, 20, 48}, white noise, a rank-1 product field, a field
/// stitched from a short-range and a long-range half, and two Miranda-proxy
/// slices (early and developed flow).
pub(crate) fn families() -> Vec<(String, Field2D)> {
    let grf =
        |range: f64, seed| generate_single_range(&GaussianFieldConfig::new(N, N, range, seed));
    let mut out: Vec<(String, Field2D)> =
        [2.0, 6.0, 20.0, 48.0].iter().map(|&a| (format!("grf-a{a}"), grf(a, 7))).collect();
    out.push(("white-noise".into(), white_noise(N, N, 11)));
    out.push((
        "rank-1".into(),
        Field2D::from_fn(N, N, |i, j| (1.0 + i as f64).sqrt() * (0.05 * j as f64).cos()),
    ));
    let (short, long) = (grf(2.5, 12), grf(24.0, 13));
    out.push((
        "stitched".into(),
        Field2D::from_fn(N, N, |i, j| if j < N / 2 { short.at(i, j) } else { long.at(i, j) }),
    ));
    let slices = MirandaProxy::new(MirandaProxyConfig {
        ny: N,
        nx: N,
        n_slices: 2,
        steps_between_snapshots: 30,
        problem: Problem::KelvinHelmholtz,
        seed: 2021,
    })
    .generate_velocityx_slices();
    out.extend(slices.into_iter().enumerate().map(|(k, f)| (format!("miranda-slice{k}"), f)));
    out
}
