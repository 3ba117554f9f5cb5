//! The wavefront predict/quantize kernel — run windows, and the AVX2 band
//! on the AVX2 tier — and the wavefront decode replay against the raster
//! cell loop they replaced, kept here as the oracle (libm `round`, one block
//! and one cell at a time, codes and exact values pushed in scan order):
//! codes, exact values and every reconstructed bit must agree, at every SIMD
//! tier the host supports. Mode selection likewise: every tier's grouped
//! passes against the one-block scalar passes, sum for sum.

use super::*;
use lcc_grid::Window;
use lcc_lossless::dispatch::supported_levels;

/// `Quantizer::quantize` as it was before the libm call was inlined.
fn reference_quantize(q: &Quantizer, value: f64, prediction: f64) -> Option<(u32, f64)> {
    let (eb, radius) = (q.error_bound(), q.radius());
    let scaled = (value - prediction) / (2.0 * eb);
    if !scaled.is_finite() || scaled.abs() >= (radius - 1) as f64 {
        return None;
    }
    let rounded = scaled.round() as i64;
    let reconstructed = prediction + rounded as f64 * 2.0 * eb;
    if (reconstructed - value).abs() > eb {
        return None;
    }
    Some(((rounded + i64::from(radius)) as u32, reconstructed))
}

/// What the encoder leaves in its scratch for the entropy stage, plus the
/// reconstruction the decoder must reproduce.
#[derive(Debug, PartialEq)]
struct Sections {
    codes: Vec<u32>,
    exact_bits: Vec<u64>,
    recon_bits: Vec<u64>,
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The historical encoder loop: blocks in tile order, rows top to bottom,
/// cells left to right, every neighbour read back from the reconstruction.
fn reference_sections(sz: &SzCompressor, field: &FieldView<'_>, eb: f64) -> Sections {
    let (ny, nx) = field.shape();
    let cfg = sz.config;
    let quantizer = Quantizer::new(eb, cfg.quantization_radius);
    let mut recon = vec![f64::NAN; ny * nx];
    let (mut codes, mut exact) = (Vec::new(), Vec::new());
    for win in WindowIter::over(ny, nx, cfg.block_size, cfg.block_size) {
        let plane = cfg
            .enable_regression
            .then(|| predictor::select_mode_with_plane(field, &win))
            .and_then(|(mode, plane)| (mode == BlockMode::Regression).then_some(plane));
        for i in win.i0..win.i0 + win.height {
            for j in win.j0..win.j0 + win.width {
                let original = field.at(i, j);
                let prediction = match plane {
                    Some(p) => plane_predict(&p, i - win.i0, j - win.j0),
                    None => {
                        let up = if i > 0 { recon[(i - 1) * nx + j] } else { 0.0 };
                        let left = if j > 0 { recon[i * nx + j - 1] } else { 0.0 };
                        let diag = if i > 0 && j > 0 { recon[(i - 1) * nx + j - 1] } else { 0.0 };
                        up + left - diag
                    }
                };
                recon[i * nx + j] = match reference_quantize(&quantizer, original, prediction) {
                    Some((code, reconstructed)) => {
                        codes.push(code);
                        reconstructed
                    }
                    None => {
                        codes.push(quantize::UNPREDICTABLE);
                        exact.push(original);
                        original
                    }
                };
            }
        }
    }
    Sections { codes, exact_bits: bits(&exact), recon_bits: bits(&recon) }
}

/// The arena of a worker that has compressed something else before: the
/// shared cell buffer holds NaNs (any read of a cell not yet written
/// poisons the prediction) and the streams hold junk.
fn poisoned_scratch() -> ScratchArena {
    let mut arena = ScratchArena::new();
    let w = arena.get_with_work::<SzScratch>().1;
    (w.cells, w.codes, w.exact) = (vec![f64::NAN; 4099], vec![7; 313], vec![f64::NAN; 17]);
    arena
}

/// Encode `field` through `arena` at every supported tier and decode the
/// stream into a NaN-filled field: sections and reconstruction must equal
/// the raster oracle bit for bit.
fn assert_identical(sz: &SzCompressor, field: &FieldView<'_>, eb: f64, arena: &mut ScratchArena) {
    let expected = reference_sections(sz, field, eb);
    let (ny, nx) = field.shape();
    let what = format!("{ny}x{nx} bs={} eb={eb:e}", sz.config.block_size);
    for &level in supported_levels() {
        let (s, w) = arena.get_with_work::<SzScratch>();
        sz.select_modes(level, field, s).unwrap();
        sz.predict_quantize_at(level, field, eb, s, w);
        let got = Sections {
            codes: w.codes.clone(),
            exact_bits: bits(&w.exact),
            recon_bits: bits(&w.cells[..ny * nx]),
        };
        assert!(got == expected, "encoder sections differ from the raster loop: {what} {level:?}");
    }
    let stream = sz.compress_view_with(field, ErrorBound::Absolute(eb), arena).unwrap();
    let mut out = Field2D::filled(3, 5, f64::NAN);
    let mut arena = ScratchArena::new();
    sz.decompress_view_with(&stream, &mut arena, &mut out).unwrap();
    assert_eq!(out.shape(), (ny, nx));
    assert!(bits(out.as_slice()) == expected.recon_bits, "decoder replay differs: {what}");
}

fn xorshift(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state as f64 / u64::MAX as f64
}

/// Smooth trend (Lorenzo blocks) with a noisy quadrant (regression blocks),
/// sparse spikes far outside any radius, and cells that sit exactly on a
/// half-bin tie of the previous cell.
fn mixed_field(ny: usize, nx: usize, eb: f64, seed: u64) -> Field2D {
    let mut state = seed | 1;
    let mut previous = 0.0f64;
    Field2D::from_fn(ny, nx, |i, j| {
        let smooth = (i as f64 * 0.11).sin() + (j as f64 * 0.07).cos() + 0.01 * (i + j) as f64;
        let noise = if i % 24 >= 12 && j % 24 >= 12 { xorshift(&mut state) - 0.5 } else { 0.0 };
        let value = match (i * nx + j) % 37 {
            5 => smooth + 1e9,         // unpredictable spike
            11 => previous + 3.0 * eb, // residual near 1.5 bins
            19 => previous - 5.0 * eb, // residual near −2.5 bins
            _ => smooth + noise + (xorshift(&mut state) - 0.5) * 4.0 * eb,
        };
        previous = value;
        value
    })
}

#[test]
fn wavefront_equals_raster_on_every_shape_and_block_size() {
    let eb = 1e-3;
    let mut s = poisoned_scratch();
    let mut shapes = vec![(1, 67), (67, 1), (1, 1), (2, 2), (13, 17), (31, 29), (53, 37)];
    for width in (1..=5).chain(15..=17) {
        shapes.push((19, width));
        shapes.push((width, 23));
    }
    for (k, &(ny, nx)) in shapes.iter().enumerate() {
        let field = mixed_field(ny, nx, eb, 0x5EED + k as u64);
        for block_size in 2..=17 {
            let sz = SzCompressor::new(SzConfig { block_size, ..SzConfig::default() });
            assert_identical(&sz, &field.view(), eb, &mut s);
        }
    }
}

#[test]
fn wavefront_keeps_the_exact_stream_in_raster_order() {
    // Radius 8 with residuals of many bins: most blocks hold several
    // escapes, scattered over the band rows, so any order but raster shows.
    let eb = 1e-2;
    let mut s = poisoned_scratch();
    for (ny, nx, seed) in [(40, 40, 1u64), (33, 50, 2), (16, 16, 3), (7, 64, 4)] {
        let mut state = seed;
        let field = Field2D::from_fn(ny, nx, |i, j| {
            (i as f64 * 0.3).sin() + (j as f64 * 0.2).cos() + (xorshift(&mut state) - 0.5) * 0.4
        });
        for entropy in [EntropyBackend::Huffman, EntropyBackend::Rans8] {
            for enable_regression in [false, true] {
                let sz = SzCompressor::new(SzConfig {
                    quantization_radius: 8,
                    enable_regression,
                    entropy,
                    ..SzConfig::default()
                });
                let expected = reference_sections(&sz, &field.view(), eb);
                assert!(expected.exact_bits.len() > ny * nx / 20, "the field must escape often");
                assert_identical(&sz, &field.view(), eb, &mut s);
            }
        }
    }
}

#[test]
fn wavefront_equals_raster_at_extreme_magnitudes() {
    let mut s = poisoned_scratch();
    for (scale, eb) in [(1e300, 1e297), (1e-300, 1e-303), (1.0, 1e-300), (1e300, 1e-3)] {
        let mut state = 0xABCDu64;
        let field = Field2D::from_fn(37, 41, |i, j| {
            scale * ((i as f64 * 0.2).sin() + (j as f64 * 0.1).cos() + xorshift(&mut state) * 0.01)
        });
        assert_identical(&SzCompressor::lorenzo_only(), &field.view(), eb, &mut s);
        assert_identical(&SzCompressor::default(), &field.view(), eb, &mut s);
    }
}

#[test]
fn wavefront_equals_raster_on_exact_half_bin_ties() {
    // Every value is a multiple of ε on a 2ε grid of bins, so residuals land
    // on `k + 0.5` bins wherever the prediction is itself on the grid: the
    // rounding emulation's hard case, on the Lorenzo chain.
    let eb = 0.25;
    let mut state = 0x71E5u64;
    let field = Field2D::from_fn(45, 52, |_, _| (xorshift(&mut state) * 64.0).floor() * eb);
    let mut s = poisoned_scratch();
    for block_size in [4, 16] {
        let sz = SzCompressor::new(SzConfig {
            block_size,
            enable_regression: false,
            ..SzConfig::default()
        });
        assert_identical(&sz, &field.view(), eb, &mut s);
    }
}

#[test]
fn stale_scratch_of_another_shape_is_never_read() {
    // Two compresses of different shapes through one scratch whose
    // reconstruction buffer is NaN wherever the first did not write: a
    // wavefront step that read a cell before writing it would turn its
    // prediction — and every code after it — into an escape.
    let eb = 1e-3;
    let sz = SzCompressor::rans8();
    let mut s = poisoned_scratch();
    let wide = mixed_field(21, 90, eb, 0xA);
    let tall = mixed_field(90, 21, eb, 0xB);
    for field in [&wide, &tall, &wide] {
        assert_identical(&sz, &field.view(), eb, &mut s);
        s.get_with_work::<SzScratch>().1.cells.iter_mut().step_by(2).for_each(|v| *v = f64::NAN);
    }
    // Strided views take the same path as owned fields.
    let window = Window { i0: 3, j0: 7, height: 17, width: 60 };
    assert_identical(&sz, &wide.view().window(&window), eb, &mut s);
}

/// The length, in blocks, of every run of Lorenzo blocks `sz` picks for
/// `field`, block row by block row.
fn lorenzo_runs(sz: &SzCompressor, field: &Field2D) -> Vec<Vec<usize>> {
    let mut s = SzScratch::default();
    sz.select_modes(SimdLevel::Scalar, &field.view(), &mut s).unwrap();
    let per_row = field.nx().div_ceil(sz.config.block_size);
    let runs = |row: &[BlockMode]| {
        let lengths = row.split(|m| *m == BlockMode::Regression).map(<[BlockMode]>::len);
        lengths.filter(|&n| n > 0).collect()
    };
    s.modes.chunks(per_row).map(runs).collect()
}

/// A field every block of which Lorenzo predicts better than a plane, to be
/// coded at a bound of 0.01: the value at each of `spikes` is 35 000 bins off
/// its prediction, past the default radius, the rest at most 1 250.
fn smooth_with_spikes(ny: usize, nx: usize, spikes: &[(usize, usize)]) -> Field2D {
    let mut state = 0x5B1Eu64;
    Field2D::from_fn(ny, nx, |i, j| {
        // Separable, so Lorenzo is exact but for the noise; curved, so no
        // plane is.
        let smooth = 100.0 * ((i as f64 * 0.3).sin() + (j as f64 * 0.25).cos());
        let value = smooth + (xorshift(&mut state) - 0.5) * 2e-3;
        if spikes.contains(&(i, j)) {
            value + 700.0
        } else {
            value
        }
    })
}

#[test]
fn run_windows_equal_raster_at_every_tier() {
    let eb = 1e-3;
    let mut s = poisoned_scratch();
    let sz = SzCompressor::default();
    // Runs of one block: noisy block columns (regression) between smooth
    // ones (Lorenzo).
    let mut state = 0x0DDu64;
    let alternating = smooth_with_spikes(48, 96, &[]);
    let alternating = Field2D::from_fn(48, 96, |i, j| {
        let noise = if (j / 16) % 2 == 1 { (xorshift(&mut state) - 0.5) * 400.0 } else { 0.0 };
        alternating.get(i, j) + noise
    });
    let runs = lorenzo_runs(&sz, &alternating);
    assert!(runs.iter().all(|row| *row == [1, 1, 1]), "runs of one block: {runs:?}");
    // Block rows that mix regression blocks and runs of several blocks.
    let mixed = smooth_with_spikes(64, 200, &[(20, 70), (40, 150)]);
    let mixed = Field2D::from_fn(64, 200, |i, j| {
        let noisy = (j / 16 + 2 * (i / 16)) % 5 == 0;
        mixed.get(i, j) + if noisy { (xorshift(&mut state) - 0.5) * 400.0 } else { 0.0 }
    });
    let runs = lorenzo_runs(&sz, &mixed);
    let mixes = |row: &Vec<usize>| row.len() > 1 && row.iter().any(|&n| n > 1);
    assert!(runs.iter().all(mixes), "mixed block rows: {runs:?}");
    let cases = [
        alternating,
        mixed,
        // A partial last block in both directions.
        mixed_field(61, 83, eb, 2),
        // An archive tile.
        mixed_field(64, 64, eb, 3),
        // 512 wide; the last block row (8 rows) is shorter than the band.
        mixed_field(40, 512, eb, 4),
        // One block row, the top one, so no row above any band.
        mixed_field(16, 200, eb, 5),
        // A last block row of five rows.
        mixed_field(37, 70, eb, 6),
    ];
    for (k, field) in cases.iter().enumerate() {
        // The first two are coded at the bound they were built for.
        let eb = if k < 2 { 0.01 } else { eb };
        for sz in [SzCompressor::default(), SzCompressor::lorenzo_only(), SzCompressor::rans8()] {
            assert_identical(&sz, &field.view(), eb, &mut s);
        }
    }
}

#[test]
fn a_lane_that_escapes_mid_run_takes_the_scalar_cell() {
    // One escape at a time in the middle of 64-wide Lorenzo runs: at band
    // rows 0, 5, 11 and 15 of the first block row and in the second and
    // last, so every step around it runs all lanes in registers.
    let eb = 0.01;
    let spikes = [(0, 30), (5, 40), (11, 52), (15, 47), (23, 33), (63, 20)];
    let field = smooth_with_spikes(64, 64, &spikes);
    let sz = SzCompressor::default();
    let runs = lorenzo_runs(&sz, &field);
    assert!(runs.iter().all(|row| *row == [4]), "whole block rows of Lorenzo: {runs:?}");
    // A spike escapes, and so do the cells whose prediction reads it.
    let escapes = reference_sections(&sz, &field.view(), eb).exact_bits.len();
    assert!((spikes.len()..=4 * spikes.len()).contains(&escapes), "{escapes} escapes");
    let mut s = poisoned_scratch();
    for sz in [sz, SzCompressor::rans8()] {
        assert_identical(&sz, &field.view(), eb, &mut s);
    }
}

/// `predictor::select_modes` at `level` against the one-block oracle — modes
/// and planes — and, for every full group of blocks, the grouped passes'
/// value sums and error sums against each block's own scalar passes, bit for
/// bit.
fn assert_selection_identical(field: &FieldView<'_>, block_size: usize, level: SimdLevel) {
    use predictor::{block_errors, block_sums, group_errors_at, group_sums_at, GROUP};
    let (ny, nx) = field.shape();
    let what = format!("{ny}x{nx} bs={block_size} {level:?}");
    let (mut modes, mut planes) = (Vec::new(), Vec::new());
    predictor::select_modes(level, field, block_size, &mut modes, &mut planes);
    let mut planes = planes.iter();
    let blocks = WindowIter::over(ny, nx, block_size, block_size);
    assert_eq!(modes.len(), blocks.count_windows(), "{what}");
    for (win, mode) in blocks.zip(&modes) {
        let (expected, plane) = predictor::select_mode_with_plane(field, &win);
        assert_eq!(*mode, expected, "{what}: block at {:?}", (win.i0, win.j0));
        if expected == BlockMode::Regression {
            let kept = planes.next().expect("a plane per regression block");
            assert_eq!(kept.map(f64::to_bits), plane.map(f64::to_bits), "{what}");
        }
    }
    assert!(planes.next().is_none(), "{what}: no plane without a regression block");
    for i0 in (0..ny).step_by(block_size) {
        let h = block_size.min(ny - i0);
        let mut j0 = 0;
        while j0 + GROUP * block_size <= nx {
            let sums = group_sums_at(level, field, i0, j0, h, block_size);
            let fitted = sums.map(|s| predictor::plane_from_sums(h, block_size, s));
            let errors = group_errors_at(level, field, i0, j0, h, block_size, &fitted);
            for g in 0..GROUP {
                let j = j0 + g * block_size;
                let [want_sums] = block_sums::<1>(field, i0, j, h, block_size);
                let [want_errors] = block_errors::<1>(field, i0, j, h, block_size, &[fitted[g]]);
                let at = format!("{what}: block {g} of the group at {:?}", (i0, j0));
                assert_eq!(sums[g].map(f64::to_bits), want_sums.map(f64::to_bits), "{at}");
                assert_eq!(errors[g].map(f64::to_bits), want_errors.map(f64::to_bits), "{at}");
            }
            j0 += GROUP * block_size;
        }
    }
}

#[test]
fn mode_selection_equals_the_one_block_passes_at_every_tier() {
    let eb = 1e-3;
    let mut state = 0x00F1_E1D5_u64;
    let wide = mixed_field(70, 300, eb, 0xE);
    let cases = [
        // A partial last block in both directions; groups on the i0 = 0 and
        // j0 = 0 edges, and a ragged last block row.
        mixed_field(61, 83, eb, 0xA),
        // An archive tile: one group of four a block row.
        mixed_field(64, 64, eb, 0xB),
        // One block row, the top one: no row above any group.
        mixed_field(16, 200, eb, 0xC),
        // Values near `f64::MAX`: sums overflow to ±∞ and NaN.
        Field2D::from_fn(40, 70, |_, _| f64::MAX * (2.0 * xorshift(&mut state) - 1.0)),
        Field2D::from_fn(33, 64, |i, j| if (i + j) % 3 == 0 { f64::MAX } else { -f64::MAX / 3.0 }),
    ];
    for &level in supported_levels() {
        for field in &cases {
            for block_size in [3, 4, 5, 8, 16, 17] {
                assert_selection_identical(&field.view(), block_size, level);
            }
        }
        // A strided view whose first column sits inside the parent's rows:
        // its left edge is still the field's edge.
        let window = Window { i0: 5, j0: 9, height: 50, width: 260 };
        assert_selection_identical(&wide.view().window(&window), 16, level);
    }
}

#[test]
fn non_finite_fields_are_refused_alike_at_every_tier() {
    let sz = SzCompressor::default();
    let clean = mixed_field(48, 96, 1e-3, 0xD);
    let (mut modes, mut planes) = (Vec::new(), Vec::new());
    // In a grouped block (rows 0 and 20, the first group), in the last
    // group's last block, and in the ragged last block row.
    for (i, j, bad) in [(0, 0, f64::NAN), (20, 40, f64::INFINITY), (47, 63, f64::NEG_INFINITY)] {
        let mut field = clean.clone();
        field.set(i, j, bad);
        let mut refusals = Vec::new();
        for &level in supported_levels() {
            assert!(!predictor::select_modes(level, &field.view(), 16, &mut modes, &mut planes));
            let result = sz.compress_view_at(
                level,
                &field.view(),
                ErrorBound::Absolute(1e-3),
                &mut ScratchArena::new(),
            );
            refusals.push(format!("{result:?}"));
        }
        assert!(refusals[0].contains("InvalidInput"), "({i}, {j}): {}", refusals[0]);
        assert!(refusals.iter().all(|r| *r == refusals[0]), "({i}, {j}): {refusals:?}");
    }
}
