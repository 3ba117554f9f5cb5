//! The shared input pool `P`: eight 512×512 fields made from the seed.
//! Four single-range Gaussian random fields (a = 2, 6, 18, 40), two
//! two-range fields (2+40, 8+40) and two Miranda-proxy `velocityx`
//! slices. The program under test only ever sees these generated inputs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::rng::Rng;
use crate::surface::{self, Field2D};

/// Edge of every pool field.
pub const N: usize = 512;
/// Uncompressed bytes of one pool field.
pub const FIELD_BYTES: u64 = (N * N * 8) as u64;
/// Solver steps between the two Miranda-proxy snapshots (and before the
/// first): chosen so that `hydro.generate_s` stays near half a second.
const HYDRO_STEPS: usize = 3;

pub struct Pool {
    pub fields: Vec<Field2D>,
    pub names: Vec<String>,
    /// Time spent in `lcc_synth`, summed over fields.
    pub synth_s: f64,
    /// Time spent in `lcc_hydro`.
    pub hydro_s: f64,
}

/// Training set of `select`'s predictor: 16 fields of edge 256, ranges
/// spread evenly in the logarithm over the pool's 2…40.
const TRAIN_FIELDS: usize = 16;
const TRAIN_N: usize = 256;

enum Grf {
    Single(f64),
    Two(f64, f64),
}

/// Run `jobs` on up to `threads` scoped threads; results in job order.
pub fn parallel_jobs<T: Send>(
    threads: usize,
    jobs: usize,
    run: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, jobs.max(1)) {
            scope.spawn(|| loop {
                // Relaxed: the index hands out work and publishes nothing.
                let job = next.fetch_add(1, Ordering::Relaxed);
                if job >= jobs {
                    break;
                }
                let value = run(job);
                *slots[job].lock().expect("no job panics while holding its slot") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("slot lock is not poisoned").expect("every job ran once")
        })
        .collect()
}

/// `select`'s training fields, apart from the pool, each with its range;
/// and the summed generation time.
pub fn training_set(seed: u64, threads: usize) -> (Vec<(Field2D, f64)>, f64) {
    let made = parallel_jobs(threads, TRAIN_FIELDS, |k| {
        let range = 2.0 * 20f64.powf(k as f64 / (TRAIN_FIELDS - 1) as f64);
        let t0 = Instant::now();
        let field = surface::grf_single(TRAIN_N, range, Rng::fork(seed, 300 + k as u64).next_u64());
        ((field, range), t0.elapsed().as_secs_f64())
    });
    let secs = made.iter().map(|(_, s)| s).sum();
    (made.into_iter().map(|(f, _)| f).collect(), secs)
}

pub fn generate(seed: u64, threads: usize) -> Pool {
    let recipes = [
        ("grf-a2", Grf::Single(2.0)),
        ("grf-a6", Grf::Single(6.0)),
        ("grf-a18", Grf::Single(18.0)),
        ("grf-a40", Grf::Single(40.0)),
        ("grf-a2+40", Grf::Two(2.0, 40.0)),
        ("grf-a8+40", Grf::Two(8.0, 40.0)),
    ];
    let made = parallel_jobs(threads, recipes.len(), |k| {
        let sub_seed = Rng::fork(seed, 100 + k as u64).next_u64();
        let t0 = Instant::now();
        let field = match recipes[k].1 {
            Grf::Single(a) => surface::grf_single(N, a, sub_seed),
            Grf::Two(a1, a2) => surface::grf_two_ranges(N, a1, a2, sub_seed),
        };
        (field, t0.elapsed().as_secs_f64())
    });
    let synth_s = made.iter().map(|(_, s)| s).sum();
    let mut fields: Vec<Field2D> = made.into_iter().map(|(f, _)| f).collect();
    let mut names: Vec<String> = recipes.iter().map(|(n, _)| n.to_string()).collect();

    // The solver parallelises each step itself (over `LCC_THREADS`).
    let t0 = Instant::now();
    let slices = surface::miranda_slices(N, 2, HYDRO_STEPS, Rng::fork(seed, 200).next_u64());
    let hydro_s = t0.elapsed().as_secs_f64();
    for (k, slice) in slices.into_iter().enumerate() {
        fields.push(slice);
        names.push(format!("miranda-vx{k}"));
    }
    Pool { fields, names, synth_s, hydro_s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_jobs_keeps_job_order_at_any_width() {
        for threads in [1, 3, 8] {
            assert_eq!(parallel_jobs(threads, 5, |k| k * k), vec![0, 1, 4, 9, 16]);
        }
        assert!(parallel_jobs(2, 0, |k| k).is_empty());
    }
}
