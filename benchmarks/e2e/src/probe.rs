//! The probe phase of a traced run: fixed-iteration timings of public
//! kernels on payloads taken from the workload's pool, for the rows no
//! request-level span can give (`lossless.*`, `geostat.window_*`,
//! `pressio.frame_overhead_frac`, `pressio.tiled_compress_mb_s`,
//! `bench.timer_ns`). The same on every workload: these rows say how fast
//! a kernel is, the workload's spans say how much it was used.

use std::hint::black_box;
use std::time::Instant;

use crate::metrics::Layers;
use crate::pool::{Pool, FIELD_BYTES};
use crate::stats;
use crate::surface::{
    self, Codec, ErrorBound, Field2D, FrameScratch, KernelScratch, ScratchArena, ThreadPoolConfig,
    ARCHIVE_CODEC,
};
use crate::trace::now_ns;
use crate::workloads::BOUND;

/// Pool field the payloads come from: the a = 18 Gaussian field, smooth
/// enough that its residual codes fit the entropy coders' fast tables.
const PAYLOAD_FIELD: usize = 2;
const KERNEL_ITERS: usize = 15;
const WINDOW_ITERS: usize = 100;
const FRAME_ITERS: usize = 11;
const FRAME_BLOCKS: usize = 4;

/// Median seconds of `iters` runs of `f`.
fn median_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&secs)
}

/// Quantisation codes of a 2D Lorenzo predictor run on reconstructed
/// values at bound `eps`: the kind of symbols `sz` hands its entropy
/// coder.
fn lorenzo_codes(field: &Field2D, eps: f64) -> Vec<u32> {
    const RADIUS: i64 = 1 << 15;
    let (ny, nx) = field.shape();
    let mut recon = vec![0.0f64; ny * nx];
    let mut codes = Vec::with_capacity(ny * nx);
    for i in 0..ny {
        for j in 0..nx {
            let at = |di: usize, dj: usize| {
                if i >= di && j >= dj {
                    recon[(i - di) * nx + (j - dj)]
                } else {
                    0.0
                }
            };
            let predicted = at(0, 1) + at(1, 0) - at(1, 1);
            let q = ((field.at(i, j) - predicted) / (2.0 * eps)).round() as i64;
            let q = q.clamp(-RADIUS + 1, RADIUS - 1);
            recon[i * nx + j] = predicted + q as f64 * 2.0 * eps;
            codes.push((q + RADIUS) as u32);
        }
    }
    codes
}

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

/// Fill the kernel rows. A kernel that fails to invert its own output
/// leaves its row at 0.
pub fn kernels(layers: &mut Layers, pool: &Pool, codecs: &[Codec], threads: usize) {
    let field = &pool.fields[PAYLOAD_FIELD];
    let bound = ErrorBound::Absolute(BOUND);
    let mut k = KernelScratch::default();

    // Entropy coders, on residual codes; rates are per byte of u32 symbol.
    let codes = lorenzo_codes(field, BOUND);
    let symbol_bytes = codes.len() * 4;
    let (mut packed, mut unpacked) = (Vec::new(), Vec::new());
    let enc = median_secs(KERNEL_ITERS, || {
        surface::huffman_encode(&mut k, black_box(&codes), &mut packed)
    });
    layers.set("lossless.huffman_enc_mb_s", mb_per_s(symbol_bytes, enc));
    let mut ok = true;
    let dec = median_secs(KERNEL_ITERS, || {
        ok &= surface::huffman_decode(&mut k, black_box(&packed), &mut unpacked)
    });
    if ok && unpacked == codes {
        layers.set("lossless.huffman_dec_mb_s", mb_per_s(symbol_bytes, dec));
    }
    let enc =
        median_secs(KERNEL_ITERS, || surface::rans8_encode(&mut k, black_box(&codes), &mut packed));
    layers.set("lossless.rans8_enc_mb_s", mb_per_s(symbol_bytes, enc));
    let dec = median_secs(KERNEL_ITERS, || {
        ok &= surface::rans8_decode(&mut k, black_box(&packed), &mut unpacked)
    });
    if ok && unpacked == codes {
        layers.set("lossless.rans8_dec_mb_s", mb_per_s(symbol_bytes, dec));
    }

    // LZ77 and XXH64, on a real `sz` stream of the same field.
    let mut arena = ScratchArena::new();
    if let Ok(stream) = codecs[0].compress(&field.view(), bound, &mut arena) {
        let (mut lz, mut back) = (Vec::new(), Vec::new());
        let enc = median_secs(KERNEL_ITERS, || {
            surface::lz77_compress(&mut k, black_box(&stream), &mut lz)
        });
        layers.set("lossless.lz77_enc_mb_s", mb_per_s(stream.len(), enc));
        let dec =
            median_secs(KERNEL_ITERS, || ok &= surface::lz77_decompress(black_box(&lz), &mut back));
        if ok && back == stream {
            layers.set("lossless.lz77_dec_mb_s", mb_per_s(stream.len(), dec));
        }
        let hash = median_secs(KERNEL_ITERS, || {
            black_box(surface::xxh64(black_box(&stream)));
        });
        layers.set("lossless.xxh64_mb_s", mb_per_s(stream.len(), hash));
    }

    // One 32×32 window through each local statistic.
    let cfg = surface::stats_config(1);
    let window = field.view().subview(64, 64, cfg.window, cfg.window);
    let range = median_secs(WINDOW_ITERS, || {
        black_box(surface::window_range(black_box(&window), &cfg));
    });
    layers.set("geostat.window_range_us", range * 1e6);
    let svd = median_secs(WINDOW_ITERS, || {
        black_box(surface::window_svd(black_box(&window), &cfg));
    });
    layers.set("geostat.window_svd_us", svd * 1e6);

    // What the frame adds to its blocks: a 4-block frame at pool width 1
    // against the same four row blocks compressed as single streams.
    let one = ThreadPoolConfig::with_threads(1);
    let mut frames = FrameScratch::new();
    let sz = &codecs[0];
    let framed = median_secs(FRAME_ITERS, || {
        black_box(sz.compress_framed(&field.view(), bound, FRAME_BLOCKS, one, &mut frames).is_ok());
    });
    let rows = field.ny() / FRAME_BLOCKS;
    let blocks = median_secs(FRAME_ITERS, || {
        for b in 0..FRAME_BLOCKS {
            let block = field.view().subview(b * rows, 0, rows, field.nx());
            black_box(sz.compress(&block, bound, &mut arena).is_ok());
        }
    });
    layers.set("pressio.frame_overhead_frac", framed / blocks - 1.0);

    // The tiled encode `ingest` and `region`'s set-up go through.
    let width = ThreadPoolConfig::with_threads(threads);
    let tiled = median_secs(FRAME_ITERS, || {
        let archive = &codecs[ARCHIVE_CODEC];
        black_box(
            archive.compress_tiled(&field.view(), bound, surface::TILE, width, &mut frames).is_ok(),
        );
    });
    layers.set("pressio.tiled_compress_mb_s", mb_per_s(FIELD_BYTES as usize, tiled));

    // What one clock reading costs, the floor under every span.
    let reads = 10_000;
    let t0 = now_ns();
    for _ in 0..reads {
        black_box(now_ns());
    }
    layers.set("bench.timer_ns", (now_ns() - t0) as f64 / reads as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lorenzo_codes_reconstruct_within_the_bound() {
        let field = Field2D::from_fn(20, 24, |i, j| (0.3 * i as f64).sin() + 0.01 * (j * j) as f64);
        let eps = 1e-2;
        let codes = lorenzo_codes(&field, eps);
        assert_eq!(codes.len(), 20 * 24);
        // Replay the predictor from the codes alone.
        let (ny, nx) = field.shape();
        let mut recon = vec![0.0f64; ny * nx];
        for i in 0..ny {
            for j in 0..nx {
                let at = |di: usize, dj: usize| {
                    if i >= di && j >= dj {
                        recon[(i - di) * nx + (j - dj)]
                    } else {
                        0.0
                    }
                };
                let predicted = at(0, 1) + at(1, 0) - at(1, 1);
                let q = codes[i * nx + j] as i64 - (1 << 15);
                recon[i * nx + j] = predicted + q as f64 * 2.0 * eps;
                assert!((recon[i * nx + j] - field.at(i, j)).abs() <= eps * (1.0 + 1e-9));
            }
        }
    }
}
