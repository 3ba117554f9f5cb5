//! Local SVD truncation-level statistics.
//!
//! For every `H × H` window the paper computes the number of singular modes
//! needed to recover 99 % of the window's variance; the standard deviation
//! of that truncation level across windows ("Std of truncation level of
//! local SVD (H=32)") is the multiscale-sensitive statistic of Section V-C.
//!
//! "Variance" is taken literally: each window is centred (its mean removed)
//! before the decomposition, so the truncation level measures the complexity
//! of the window's *fluctuations* rather than being dominated by the rank-1
//! mean component. This is what makes the statistic discriminate windows of
//! smooth large-scale flow from windows of developed turbulence.

use crate::local::full_windows;
use lcc_grid::{stats, FieldView};
use lcc_linalg::svd::EnergySpectrum;
use lcc_par::{try_parallel_map_with_state, ThreadPoolConfig};

/// Truncation level of a single window view — one window through the
/// kernel [`local_svd_truncation_levels_view`] runs per tile, public so a
/// benchmark can time one window. Returns `None` when the decomposition
/// fails.
///
/// The window is centred so the level describes the variance (fluctuation)
/// structure, not the rank-1 mean component; the level itself comes from the
/// energy-only spectrum kernel ([`EnergySpectrum`]), which agrees with the
/// Jacobi `svd()` oracle unless the cumulative energy lands within rounding
/// of the threshold.
pub fn window_truncation_level(view: &FieldView<'_>, fraction: f64) -> Option<usize> {
    EnergySpectrum::new().truncation_level(view.rows(), fraction)
}

/// Compute the 99 %-variance (or any `fraction`) truncation level of every
/// full `window × window` tile of the field; tiles whose decomposition fails
/// are dropped. Each tile is a strided sub-view of the parent buffer, with
/// no per-window allocation at all (each worker reuses one
/// [`EnergySpectrum`] scratch).
pub fn local_svd_truncation_levels_view(
    field: &FieldView<'_>,
    window: usize,
    fraction: f64,
    threads: Option<usize>,
) -> Vec<usize> {
    assert!(window >= 2, "windows must be at least 2x2");
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
    let tiles = full_windows(field, window);
    let pool = threads.map_or_else(ThreadPoolConfig::auto, ThreadPoolConfig::with_threads);
    let level = |spectrum: &mut EnergySpectrum, _, view: &FieldView<'_>| {
        spectrum.truncation_level(view.rows(), fraction)
    };
    let levels = try_parallel_map_with_state(pool, &tiles, EnergySpectrum::new, level)
        .unwrap_or_else(|err| panic!("{err}"));
    levels.into_iter().flatten().collect()
}

/// Standard deviation of the local SVD truncation levels — the statistic on
/// the x-axis of Figure 6 and the right column of Figure 7.
pub fn local_svd_truncation_std_view(
    field: &FieldView<'_>,
    window: usize,
    fraction: f64,
    threads: Option<usize>,
) -> f64 {
    let levels = local_svd_truncation_levels_view(field, window, fraction, threads);
    let as_f64: Vec<f64> = levels.iter().map(|&l| l as f64).collect();
    stats::std_dev(&as_f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fields::{families, white_noise};
    use lcc_grid::Field2D;
    use lcc_linalg::svd::{svd, truncation_level};
    use lcc_linalg::Matrix;
    use lcc_synth::{generate_single_range, GaussianFieldConfig};

    /// Mean truncation level over the field's full 32 × 32 windows.
    fn mean_level(field: &Field2D, fraction: f64) -> f64 {
        let levels = local_svd_truncation_levels_view(&field.view(), 32, fraction, None);
        stats::mean(&levels.iter().map(|&l| l as f64).collect::<Vec<_>>())
    }

    const FRACTIONS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

    /// Checks one window at every fraction against the oracle: the Jacobi
    /// `svd()` of the centred window + `truncation_level`. A mismatch fails,
    /// except where the oracle's own cumulative energy passes within
    /// 1e-10·total of the threshold — there the level is decided by rounding
    /// on either route and ±1 is accepted. Returns how many of the four
    /// comparisons were such near-threshold cases.
    fn assert_levels_match_oracle(view: &FieldView<'_>, what: &str) -> usize {
        let mean = view.summary().mean;
        let centred: Vec<f64> = view.iter().map(|v| v - mean).collect();
        let m = Matrix::from_vec(view.ny(), view.nx(), centred).unwrap();
        let sv = svd(&m).unwrap().singular_values;
        let total: f64 = sv.iter().map(|s| s * s).sum();
        let mut near = 0;
        for fraction in FRACTIONS {
            let oracle = truncation_level(&sv, fraction);
            let level = window_truncation_level(view, fraction).unwrap();
            let threshold = fraction * total - 1e-12 * total;
            let mut acc = 0.0;
            let near_threshold = sv.iter().any(|s| {
                acc += s * s;
                (acc - threshold).abs() <= 1e-10 * total
            });
            if near_threshold {
                near += 1;
                assert!(level.abs_diff(oracle) <= 1, "{what} @ {fraction}: {level} vs {oracle}");
            } else {
                assert_eq!(level, oracle, "{what} @ {fraction}");
            }
        }
        near
    }

    #[test]
    fn window_levels_equal_the_jacobi_oracle_on_every_family() {
        let (mut windows, mut near) = (0, 0);
        for (name, field) in families() {
            for size in [16, 32, 64] {
                for (win, view) in field.windows(size, size) {
                    near += assert_levels_match_oracle(
                        &view,
                        &format!("{name} {size}² at ({}, {})", win.i0, win.j0),
                    );
                    windows += 1;
                }
            }
        }
        assert_eq!(windows, 9 * (64 + 16 + 4));
        // Near-threshold cases are the tolerated exception, not the rule.
        assert!(near * 100 <= windows * FRACTIONS.len(), "{near} near-threshold comparisons");
    }

    #[test]
    fn rectangular_and_strided_views_equal_the_oracle_and_their_owned_copies() {
        for (name, field) in families() {
            // Wide (Gram over rows), tall (Gram over columns), and a column
            // strip; all strided through the parent buffer.
            for (i0, j0, h, w) in [(3, 5, 24, 40), (5, 3, 40, 24), (60, 17, 64, 9)] {
                let view = field.view().subview(i0, j0, h, w);
                assert!(!view.is_contiguous());
                assert_levels_match_oracle(&view, &format!("{name} {h}x{w}"));
                let owned = view.to_field();
                for fraction in FRACTIONS {
                    assert_eq!(
                        window_truncation_level(&view, fraction),
                        window_truncation_level(&owned.view(), fraction)
                    );
                }
            }
        }
    }

    #[test]
    fn levels_survive_every_representable_amplitude() {
        // The Gram route squares entries; without the power-of-two scaling
        // 1e±300 would overflow / flush to zero.
        let base = generate_single_range(&GaussianFieldConfig::new(32, 32, 5.0, 4));
        let noise = white_noise(32, 32, 3);
        for (name, field) in [("grf", &base), ("noise", &noise)] {
            let expected = window_truncation_level(&field.view(), 0.99).unwrap();
            assert!(expected > 0);
            for amplitude in [1e-300, 1e-150, 1e150, 1e300] {
                let scaled = Field2D::from_fn(32, 32, |i, j| field.at(i, j) * amplitude);
                assert_eq!(
                    window_truncation_level(&scaled.view(), 0.99),
                    Some(expected),
                    "{name} × {amplitude}"
                );
            }
        }
    }

    #[test]
    fn degenerate_windows_have_defined_levels() {
        // Constant, and zeros of either sign: no variance, level 0.
        let signed_zeros =
            Field2D::from_fn(32, 32, |i, j| if (i + j) % 2 == 0 { 0.0 } else { -0.0 });
        for f in [Field2D::filled(32, 32, 4.25), Field2D::zeros(32, 32), signed_zeros] {
            assert_eq!(window_truncation_level(&f.view(), 0.99), Some(0));
        }
        // A constant whose mean does not round back to it leaves a rank-1
        // residue of rounding, on both routes.
        assert_levels_match_oracle(&Field2D::filled(32, 32, 4.2).view(), "constant 4.2");
        // Subnormal values: integer multiples of the smallest subnormal,
        // which the same integers at amplitude 1 must agree with.
        let integers = Field2D::from_fn(32, 32, |i, j| {
            (1e6 * ((0.3 * i as f64).sin() + (0.2 * j as f64).cos() + 0.01 * (i * j) as f64))
                .round()
        });
        let tiny = f64::from_bits(1);
        let subnormal = Field2D::from_fn(32, 32, |i, j| integers.at(i, j) * tiny);
        assert!(subnormal.as_slice().iter().all(|x| x.abs() < f64::MIN_POSITIVE));
        let level = window_truncation_level(&integers.view(), 0.99).unwrap();
        assert!(level > 0);
        assert_eq!(window_truncation_level(&subnormal.view(), 0.99), Some(level));
        // A single spike: the centred window has rank 2. A huge one must
        // read the same (the Jacobi oracle itself overflows there).
        let spike = |amplitude: f64| {
            let mut f = Field2D::zeros(32, 32);
            f.set(7, 19, amplitude);
            f
        };
        assert_levels_match_oracle(&spike(1.0).view(), "spike");
        for fraction in FRACTIONS {
            assert_eq!(
                window_truncation_level(&spike(1e300).view(), fraction),
                window_truncation_level(&spike(1.0).view(), fraction)
            );
        }
        // Non-finite input has no spectrum.
        let mut f = Field2D::filled(32, 32, 1.0);
        f.set(3, 3, f64::NAN);
        assert_eq!(window_truncation_level(&f.view(), 0.99), None);
        f.set(3, 3, f64::INFINITY);
        assert_eq!(window_truncation_level(&f.view(), 0.99), None);
    }

    #[test]
    fn rank_one_windows_need_one_mode() {
        // A separable product field has rank-1 windows.
        let f = Field2D::from_fn(64, 64, |i, j| (1.0 + i as f64) * (1.0 + j as f64).ln().max(0.1));
        let levels = local_svd_truncation_levels_view(&f.view(), 32, 0.99, Some(2));
        assert_eq!(levels.len(), 4);
        assert!(levels.iter().all(|&l| l <= 2), "{levels:?}");
    }

    #[test]
    fn noise_needs_many_modes_smooth_needs_few() {
        let smooth = generate_single_range(&GaussianFieldConfig::new(96, 96, 20.0, 3));
        let noise = white_noise(96, 96, 11);
        let smooth_mean = mean_level(&smooth, 0.99);
        let noise_mean = mean_level(&noise, 0.99);
        assert!(noise_mean > 2.0 * smooth_mean, "noise {noise_mean} vs smooth {smooth_mean}");
    }

    #[test]
    fn std_statistic_is_finite_and_deterministic() {
        let f = generate_single_range(&GaussianFieldConfig::new(96, 96, 6.0, 8));
        let a = local_svd_truncation_std_view(&f.view(), 32, 0.99, Some(1));
        let b = local_svd_truncation_std_view(&f.view(), 32, 0.99, Some(4));
        assert!(a.is_finite());
        assert_eq!(a, b);
    }

    #[test]
    fn partial_windows_are_ignored() {
        let f = generate_single_range(&GaussianFieldConfig::new(70, 70, 6.0, 8));
        let levels = local_svd_truncation_levels_view(&f.view(), 32, 0.99, None);
        assert_eq!(levels.len(), 4); // only the 2x2 grid of full windows
    }

    #[test]
    fn fraction_controls_the_level() {
        let f = generate_single_range(&GaussianFieldConfig::new(64, 64, 5.0, 2));
        let strict = mean_level(&f, 0.999);
        let loose = mean_level(&f, 0.5);
        assert!(strict > loose);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_fraction_panics() {
        let f = Field2D::zeros(32, 32);
        let _ = local_svd_truncation_levels_view(&f.view(), 32, 1.5, None);
    }
}
