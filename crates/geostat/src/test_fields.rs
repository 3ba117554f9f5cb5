//! The field families the kernel tests (spectrum oracle, variogram
//! reference) run over: the study's inputs plus the structured extremes.

use lcc_grid::{Field2D, FieldView};
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

/// One tiling the quad tests run: the windows of `rect` (`i0, j0, h, w`) of
/// `field`, and the variogram's sample budget.
pub(crate) struct QuadCase {
    pub name: String,
    pub field: Field2D,
    pub rect: (usize, usize, usize, usize),
    pub window: usize,
    pub budget: usize,
}

impl QuadCase {
    fn whole(name: &str, field: Field2D, window: usize) -> QuadCase {
        let rect = (0, 0, field.ny(), field.nx());
        QuadCase { name: name.into(), field, rect, window, budget: 200_000 }
    }

    pub fn view(&self) -> FieldView<'_> {
        let (i0, j0, h, w) = self.rect;
        self.field.view().subview(i0, j0, h, w)
    }
}

/// Ten 32 × 32 windows side by side, so each shares a quad with others:
/// a GRF, two constants (one whose mean rounds), a window with zero rows
/// after centring, signed zeros, spikes of 1e300 and 1e-300, an exactly
/// rank-1 window, all `-0.0`, and rows falling off by 1e-20 a row from the
/// middle, whose QL ends sweeps on a zero rotation (deflation).
pub(crate) fn special_windows() -> Field2D {
    let grf = generate_single_range(&GaussianFieldConfig::new(32, 32, 5.0, 4));
    Field2D::from_fn(32, 32 * 10, |i, j| {
        let (k, j) = (j / 32, j % 32);
        match k {
            0 => grf.at(i, j),
            1 => 4.25,
            2 => 4.2,
            // Rows sum to exactly zero, rows 7 and 31 are zero.
            3 if i == 7 || i == 31 => 0.0,
            3 => {
                let a = ((i * 7 + (j % 16) * 3) % 5) as f64 - 2.0;
                if j < 16 {
                    a
                } else {
                    -a
                }
            }
            4 => {
                if (i + j) % 2 == 0 {
                    0.0
                } else {
                    -0.0
                }
            }
            5 if (i, j) == (7, 19) => 1e300,
            6 if (i, j) == (7, 19) => 1e-300,
            5 | 6 => 0.0,
            7 => (i + 1) as f64 * (j as f64 - 15.5),
            8 => -0.0,
            _ => 1e-20f64.powi(i.abs_diff(16) as i32) * if j % 2 == 0 { 1.0 } else { -1.0 },
        }
    })
}

/// The tilings the quad kernels are held to their per-window kernels on.
pub(crate) fn quad_cases() -> Vec<QuadCase> {
    let mut cases: Vec<QuadCase> =
        families().into_iter().map(|(name, field)| QuadCase::whole(&name, field, 32)).collect();
    let grf = generate_single_range(&GaussianFieldConfig::new(N, N, 6.0, 9));
    for window in [4, 16, 33] {
        let mut case = QuadCase::whole(&format!("grf window {window}"), grf.clone(), window);
        if window == 4 {
            case.rect = (0, 0, 24, 24);
        }
        cases.push(case);
    }
    let mut strided = QuadCase::whole("strided subview", grf.clone(), 32);
    strided.rect = (3, 5, 100, 70);
    cases.push(strided);
    let mut strided_budget = QuadCase::whole("budget 60", grf, 32);
    strided_budget.budget = 60;
    cases.push(strided_budget);
    // One to ten windows: every padding of a short last quad.
    for count in 1..=10 {
        let mut case = QuadCase::whole(&format!("{count} special windows"), special_windows(), 32);
        case.rect = (0, 0, 32, 32 * count);
        cases.push(case);
    }
    // Non-finite windows beside finite ones.
    let finite = generate_single_range(&GaussianFieldConfig::new(32, 32 * 5, 4.0, 6));
    let mut non_finite = finite.clone();
    non_finite.set(9, 32 + 4, f64::NAN);
    non_finite.set(20, 3 * 32 + 30, f64::INFINITY);
    cases.push(QuadCase::whole("non-finite windows", non_finite, 32));
    cases
}
