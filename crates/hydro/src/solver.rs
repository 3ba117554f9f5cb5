//! Finite-volume time integration: MUSCL reconstruction, Rusanov fluxes,
//! second-order Runge–Kutta.
//!
//! ## Traversal
//!
//! The scheme is written per cell: a cell's right-hand side is the
//! difference of its four face fluxes, each reconstructed from two cells on
//! either side of the face. A stage instead walks each worker's band of
//! rows once, row by row:
//!
//! * each cell's minmod slope is computed once per axis;
//! * each x-face flux is computed once per row, and each y-face flux once
//!   per band: a row's north faces are carried to the next row as its
//!   south faces, so only row-sized buffers exist, never one the size of
//!   the field;
//! * x wraps and y clamps by comparison, never `rem_euclid`;
//! * the stage's update is folded into the one output buffer as each cell's
//!   right-hand side is made.
//!
//! A face's flux is a function of the same four cells whichever of its two
//! cells asks for it, and every value is computed by the same operations in
//! the same order as in the per-cell scheme (kept as the tests' oracle), so
//! the state after each step has the same bits at every pool width.

use crate::euler2d::{minmod, rusanov_flux, Conserved, EulerState};
use lcc_par::{try_parallel_block_map, ThreadPoolConfig};

/// CFL number: the fraction of the maximum stable time step each step takes.
const CFL: f64 = 0.4;

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolverConfig {
    /// Thread count for the flux sweeps (`None` = automatic).
    pub threads: Option<usize>,
}

/// Explicit finite-volume solver for the 2D Euler equations on the unit
/// square (periodic in x, clamped/outflow-like in y).
#[derive(Debug, Clone)]
pub struct Euler2DSolver {
    state: EulerState,
    config: SolverConfig,
    time: f64,
    steps_taken: usize,
}

impl Euler2DSolver {
    /// Create a solver from an initial state.
    pub fn new(state: EulerState, config: SolverConfig) -> Self {
        Euler2DSolver { state, config, time: 0.0, steps_taken: 0 }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of time steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Borrow the current state.
    pub fn state(&self) -> &EulerState {
        &self.state
    }

    /// Advance one CFL-limited time step (returns the dt used).
    pub fn step(&mut self) -> f64 {
        let ny = self.state.ny();
        let nx = self.state.nx();
        let dx = 1.0 / nx as f64;
        let dy = 1.0 / ny as f64;
        let smax = self.state.max_signal_speed().max(1e-12);
        let dt = CFL * dx.min(dy) / smax;

        // Two-stage Runge–Kutta (Heun): U1 = U + dt L(U); U = (U + U1 + dt L(U1)) / 2,
        // each stage folding its right-hand side into the cell as it is made.
        let mut u1 = self.state.clone();
        self.stage(&self.state, u1.cells_mut(), dx, dy, |cell, q, l| *cell = q + l.scale(dt));
        let mut state = std::mem::replace(&mut self.state, u1);
        self.stage(&self.state, state.cells_mut(), dx, dy, |cell, q, l| {
            *cell = (*cell + (q + l.scale(dt))).scale(0.5)
        });
        self.state = state;

        self.time += dt;
        self.steps_taken += 1;
        dt
    }

    /// Advance `n` steps.
    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// One Runge–Kutta stage: for every cell, `update(out cell, q, L(q))`
    /// with `q` the cell of `input` and `L = -∂F/∂x - ∂G/∂y` its spatial
    /// right-hand side. The rows are cut into one band per worker, each
    /// writing its own rows of `out`.
    fn stage<U>(&self, input: &EulerState, out: &mut [Conserved], dx: f64, dy: f64, update: U)
    where
        U: Fn(&mut Conserved, Conserved, Conserved) + Sync,
    {
        let (ny, nx) = (input.ny(), input.nx());
        let pool = match self.config.threads {
            Some(t) => ThreadPoolConfig::with_threads(t),
            None => ThreadPoolConfig::auto(),
        };
        let band_rows = ny.div_ceil(pool.threads().min(ny));
        let bands: Vec<(usize, &mut [Conserved])> =
            out.chunks_mut(band_rows * nx).enumerate().map(|(k, b)| (k * band_rows, b)).collect();
        // The bands need no per-worker state: one unit state each.
        let mut workers = vec![(); bands.len()];
        try_parallel_block_map(pool, &mut workers, bands, |(), _, (first_row, band)| {
            band_rhs(input, first_row, band, dx, dy, &update)
        })
        .unwrap_or_else(|err| panic!("{err}"));
    }
}

/// The rows `first_row..` of a stage that `band` covers (see
/// [`Euler2DSolver::stage`]).
///
/// Each face flux is computed once and each cell's slope once per axis.
/// The flux of the face between two cells is the one the per-cell scheme
/// computes twice, as one cell's east (north) face and its neighbour's
/// west (south) face, from the same four cells: the reconstruction takes
/// the left cell's slope and the right cell's, and a slope depends only on
/// its cell and the two neighbours along the axis. So the x-faces of a row
/// are computed before its cells, and the y-face between rows `i` and
/// `i + 1` is computed as row `i`'s north face and carried to row `i + 1`
/// as its south face: only the band's first south face is computed a
/// second time, by the band above, with the same arguments. Indices wrap
/// in x and clamp in y as in the per-cell scheme's `EulerState::at`, the
/// clamped rows `-1` and `ny` standing in for the ghost rows beyond the
/// walls.
fn band_rhs<U>(
    state: &EulerState,
    first_row: usize,
    band: &mut [Conserved],
    dx: f64,
    dy: f64,
    update: &U,
) where
    U: Fn(&mut Conserved, Conserved, Conserved),
{
    let (ny, nx) = (state.ny(), state.nx());
    let cells = state.cells();
    let row = |i: isize| &cells[i.clamp(0, ny as isize - 1) as usize * nx..][..nx];
    // The y-slopes of row `i` (ghost rows included), from rows `i - 1`,
    // `i` and `i + 1`.
    let y_slopes = |i: isize, out: &mut Vec<Conserved>| {
        out.clear();
        let (prev, centre, next) = (row(i - 1), row(i), row(i + 1));
        out.extend((0..nx).map(|j| slope(prev[j], centre[j], next[j])));
    };
    // The y-face fluxes between row `i - 1` (slopes `below`) and row `i`
    // (slopes `above`).
    let y_faces = |i: isize, below: &[Conserved], above: &[Conserved], out: &mut Vec<Conserved>| {
        out.clear();
        let (lower, upper) = (row(i - 1), row(i));
        out.extend((0..nx).map(|j| {
            let left = face_state(lower[j], below[j], 0.5);
            let right = face_state(upper[j], above[j], -0.5);
            rusanov_flux(left, right, false)
        }));
    };

    let first = first_row as isize;
    let mut below = Vec::with_capacity(nx);
    let mut above = Vec::with_capacity(nx);
    let mut south = Vec::with_capacity(nx);
    let mut north = Vec::with_capacity(nx);
    let mut x_slopes = Vec::with_capacity(nx);
    let mut west = Vec::with_capacity(nx);
    y_slopes(first - 1, &mut below);
    y_slopes(first, &mut above);
    y_faces(first, &below, &above, &mut south);
    for (offset, out) in band.chunks_exact_mut(nx).enumerate() {
        let i = first + offset as isize;
        std::mem::swap(&mut below, &mut above);
        y_slopes(i + 1, &mut above);
        y_faces(i + 1, &below, &above, &mut north);

        // x: `west[j]` is the face between cells `j - 1` and `j`, wrapped.
        let cells = row(i);
        x_slopes.clear();
        x_slopes.extend((0..nx).map(|j| {
            let prev = if j == 0 { nx - 1 } else { j - 1 };
            let next = if j + 1 == nx { 0 } else { j + 1 };
            slope(cells[prev], cells[j], cells[next])
        }));
        west.clear();
        west.extend((0..nx).map(|j| {
            let prev = if j == 0 { nx - 1 } else { j - 1 };
            let left = face_state(cells[prev], x_slopes[prev], 0.5);
            let right = face_state(cells[j], x_slopes[j], -0.5);
            rusanov_flux(left, right, true)
        }));

        for (j, cell) in out.iter_mut().enumerate() {
            let east = west[if j + 1 == nx { 0 } else { j + 1 }];
            let l = divergence(east, west[j], north[j], south[j], dx, dy);
            update(cell, cells[j], l);
        }
        std::mem::swap(&mut south, &mut north);
    }
}

/// `-(east - west) / dx - (north - south) / dy`, component by component.
fn divergence(
    east: Conserved,
    west: Conserved,
    north: Conserved,
    south: Conserved,
    dx: f64,
    dy: f64,
) -> Conserved {
    Conserved {
        rho: -(east.rho - west.rho) / dx - (north.rho - south.rho) / dy,
        mx: -(east.mx - west.mx) / dx - (north.mx - south.mx) / dy,
        my: -(east.my - west.my) / dx - (north.my - south.my) / dy,
        energy: -(east.energy - west.energy) / dx - (north.energy - south.energy) / dy,
    }
}

/// Minmod-limited slope of `centre` between its neighbours `prev` and
/// `next` along one axis, component by component.
fn slope(prev: Conserved, centre: Conserved, next: Conserved) -> Conserved {
    let limit = |a: f64, b: f64, c: f64| minmod(b - a, c - b);
    Conserved {
        rho: limit(prev.rho, centre.rho, next.rho),
        mx: limit(prev.mx, centre.mx, next.mx),
        my: limit(prev.my, centre.my, next.my),
        energy: limit(prev.energy, centre.energy, next.energy),
    }
}

/// Piecewise-linear reconstruction of the state at a face, `offset` cell
/// widths from the centre of a cell with the given slope (+0.5 = right/top
/// face, −0.5 = left/bottom).
fn face_state(centre: Conserved, slope: Conserved, offset: f64) -> Conserved {
    Conserved {
        rho: centre.rho + offset * slope.rho,
        mx: centre.mx + offset * slope.mx,
        my: centre.my + offset * slope.my,
        energy: centre.energy + offset * slope.energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler2d::Primitive;
    use crate::problems::Problem;

    /// The per-cell scheme [`Euler2DSolver::step`] must reproduce bit for
    /// bit: every cell computes its four face fluxes itself, from cells
    /// fetched through the wrapping and clamping [`EulerState::at`], into
    /// one right-hand side per stage, then the Heun update.
    fn oracle_step(state: &mut EulerState) {
        let (ny, nx) = (state.ny(), state.nx());
        let dx = 1.0 / nx as f64;
        let dy = 1.0 / ny as f64;
        let dt = CFL * dx.min(dy) / state.max_signal_speed().max(1e-12);
        let l0 = oracle_rhs(state, dx, dy);
        let mut u1 = state.clone();
        for (cell, r) in u1.cells_mut().iter_mut().zip(&l0) {
            *cell = *cell + r.scale(dt);
        }
        let l1 = oracle_rhs(&u1, dx, dy);
        let mut u2 = u1;
        for (cell, r) in u2.cells_mut().iter_mut().zip(&l1) {
            *cell = *cell + r.scale(dt);
        }
        for (a, b) in state.cells_mut().iter_mut().zip(u2.cells()) {
            *a = (*a + *b).scale(0.5);
        }
    }

    fn oracle_rhs(state: &EulerState, dx: f64, dy: f64) -> Vec<Conserved> {
        let mut out = Vec::with_capacity(state.ny() * state.nx());
        for i in 0..state.ny() as isize {
            for j in 0..state.nx() as isize {
                let east = oracle_flux(state, i, j, i, j + 1, true);
                let west = oracle_flux(state, i, j - 1, i, j, true);
                let north = oracle_flux(state, i, j, i + 1, j, false);
                let south = oracle_flux(state, i - 1, j, i, j, false);
                out.push(Conserved {
                    rho: -(east.rho - west.rho) / dx - (north.rho - south.rho) / dy,
                    mx: -(east.mx - west.mx) / dx - (north.mx - south.mx) / dy,
                    my: -(east.my - west.my) / dx - (north.my - south.my) / dy,
                    energy: -(east.energy - west.energy) / dx - (north.energy - south.energy) / dy,
                });
            }
        }
        out
    }

    /// MUSCL-reconstructed Rusanov flux across the face between cells
    /// `(il, jl)` and `(ir, jr)`, neighbours in the given direction.
    fn oracle_flux(
        state: &EulerState,
        il: isize,
        jl: isize,
        ir: isize,
        jr: isize,
        x_direction: bool,
    ) -> Conserved {
        let (di, dj) = if x_direction { (0, 1) } else { (1, 0) };
        let reconstruct = |prev: Conserved, centre: Conserved, next: Conserved, offset: f64| {
            let slope = |a: f64, b: f64, c: f64| minmod(b - a, c - b);
            Conserved {
                rho: centre.rho + offset * slope(prev.rho, centre.rho, next.rho),
                mx: centre.mx + offset * slope(prev.mx, centre.mx, next.mx),
                my: centre.my + offset * slope(prev.my, centre.my, next.my),
                energy: centre.energy + offset * slope(prev.energy, centre.energy, next.energy),
            }
        };
        let ql = state.at(il, jl);
        let qr = state.at(ir, jr);
        let left = reconstruct(state.at(il - di, jl - dj), ql, qr, 0.5);
        let right = reconstruct(ql, qr, state.at(ir + di, jr + dj), -0.5);
        rusanov_flux(left, right, x_direction)
    }

    /// The cells of a state as bits, so a comparison fails on one wrong bit.
    fn bits(state: &EulerState) -> Vec<[u64; 4]> {
        let cells = state.cells().iter();
        cells.map(|c| [c.rho, c.mx, c.my, c.energy].map(f64::to_bits)).collect()
    }

    #[test]
    fn steps_equal_the_per_cell_scheme_bit_for_bit_at_every_width() {
        for (ny, nx) in [(2, 2), (2, 3), (3, 2), (5, 7), (17, 8), (48, 48)] {
            let initial = Problem::KelvinHelmholtz.initial_state(ny, nx, 13);
            let mut expected = initial.clone();
            for _ in 0..10 {
                oracle_step(&mut expected);
            }
            for threads in [1, 4] {
                let mut solver =
                    Euler2DSolver::new(initial.clone(), SolverConfig { threads: Some(threads) });
                solver.run_steps(10);
                assert_eq!(bits(solver.state()), bits(&expected), "{ny}x{nx} at width {threads}");
            }
        }
    }

    fn uniform_state(ny: usize, nx: usize) -> EulerState {
        EulerState::from_fn(ny, nx, |_, _| Primitive { rho: 1.0, u: 0.2, v: 0.0, p: 1.0 })
    }

    #[test]
    fn uniform_flow_stays_uniform() {
        let mut solver = Euler2DSolver::new(uniform_state(16, 16), SolverConfig::default());
        solver.run_steps(10);
        let u = solver.state().velocity_x();
        for &v in u.as_slice() {
            assert!((v - 0.2).abs() < 1e-10, "velocity drifted to {v}");
        }
        let rho = solver.state().density();
        for &r in rho.as_slice() {
            assert!((r - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn time_and_steps_advance() {
        let mut solver = Euler2DSolver::new(uniform_state(8, 8), SolverConfig::default());
        assert_eq!(solver.steps_taken(), 0);
        let dt = solver.step();
        assert!(dt > 0.0);
        assert!(solver.time() > 0.0);
        assert_eq!(solver.steps_taken(), 1);
    }

    #[test]
    fn mass_is_conserved_with_periodic_and_clamped_boundaries() {
        let state = Problem::KelvinHelmholtz.initial_state(32, 32, 7);
        let initial_mass = state.total_mass();
        let mut solver = Euler2DSolver::new(state, SolverConfig::default());
        solver.run_steps(20);
        let final_mass = solver.state().total_mass();
        // KH has no net flux through the clamped y boundaries (the
        // perturbation is confined to the interior), so mass drift stays tiny.
        assert!(
            (final_mass - initial_mass).abs() / initial_mass < 1e-3,
            "mass drifted from {initial_mass} to {final_mass}"
        );
    }

    #[test]
    fn kelvin_helmholtz_develops_structure() {
        let state = Problem::KelvinHelmholtz.initial_state(48, 48, 3);
        // Initially the x-velocity is perfectly layered: no variation along x.
        let row_variation = |s: &EulerState, row: usize| {
            let u = s.velocity_x();
            let values = u.row(row);
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64
        };
        let interface_row = 12; // y ≈ 0.25, on the lower shear interface
        assert!(row_variation(&state, interface_row) < 1e-20);

        let mut solver = Euler2DSolver::new(state, SolverConfig::default());
        solver.run_steps(120);
        // The perturbed shear layer transfers the transverse perturbation into
        // along-x structure of velocityx (the roll-up the dataset is built on).
        let after = row_variation(solver.state(), interface_row);
        assert!(after > 1e-8, "no x-structure developed: variance {after}");
        // Everything stays finite and physical.
        for c in solver.state().cells() {
            let w = c.to_primitive();
            assert!(w.rho > 0.0 && w.p > 0.0 && w.u.is_finite() && w.v.is_finite());
        }
    }

    #[test]
    fn explicit_thread_count_gives_identical_results() {
        let state = Problem::KelvinHelmholtz.initial_state(24, 24, 9);
        let mut a = Euler2DSolver::new(state.clone(), SolverConfig { threads: Some(1) });
        let mut b = Euler2DSolver::new(state, SolverConfig { threads: Some(4) });
        a.run_steps(5);
        b.run_steps(5);
        assert_eq!(a.state(), b.state());
    }
}
