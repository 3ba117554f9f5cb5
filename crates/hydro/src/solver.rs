//! Finite-volume time integration: MUSCL reconstruction, Rusanov fluxes,
//! second-order Runge–Kutta.

use crate::euler2d::{minmod, rusanov_flux, Conserved, EulerState};
use lcc_par::{parallel_map_with, ThreadPoolConfig};

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

        // Two-stage Runge–Kutta (Heun): U1 = U + dt L(U); U = (U + U1 + dt L(U1)) / 2.
        let l0 = self.rhs(&self.state, dx, dy);
        let mut u1 = self.state.clone();
        apply_update(&mut u1, &l0, dt);
        let l1 = self.rhs(&u1, dx, dy);
        let mut u2 = u1;
        apply_update(&mut u2, &l1, dt);
        average_states(&mut self.state, &u2);

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

    /// Spatial right-hand side `L(U) = -∂F/∂x - ∂G/∂y` for every cell.
    fn rhs(&self, state: &EulerState, dx: f64, dy: f64) -> Vec<Conserved> {
        let ny = state.ny();
        let nx = state.nx();
        let pool = match self.config.threads {
            Some(t) => ThreadPoolConfig::with_threads(t),
            None => ThreadPoolConfig::auto(),
        };
        let rows: Vec<usize> = (0..ny).collect();
        let row_results = parallel_map_with(pool, &rows, |&i| {
            let mut out = Vec::with_capacity(nx);
            for j in 0..nx {
                let ii = i as isize;
                let jj = j as isize;

                // MUSCL-limited interface states in x.
                let flux_east = interface_flux(state, ii, jj, ii, jj + 1, true);
                let flux_west = interface_flux(state, ii, jj - 1, ii, jj, true);
                // And in y.
                let flux_north = interface_flux(state, ii, jj, ii + 1, jj, false);
                let flux_south = interface_flux(state, ii - 1, jj, ii, jj, false);

                out.push(Conserved {
                    rho: -(flux_east.rho - flux_west.rho) / dx
                        - (flux_north.rho - flux_south.rho) / dy,
                    mx: -(flux_east.mx - flux_west.mx) / dx - (flux_north.mx - flux_south.mx) / dy,
                    my: -(flux_east.my - flux_west.my) / dx - (flux_north.my - flux_south.my) / dy,
                    energy: -(flux_east.energy - flux_west.energy) / dx
                        - (flux_north.energy - flux_south.energy) / dy,
                });
            }
            out
        });
        row_results.into_iter().flatten().collect()
    }
}

/// MUSCL-reconstructed Rusanov flux across the face between cells
/// `(il, jl)` and `(ir, jr)` (which are neighbours in the given direction).
fn interface_flux(
    state: &EulerState,
    il: isize,
    jl: isize,
    ir: isize,
    jr: isize,
    x_direction: bool,
) -> Conserved {
    let (step_i, step_j) = if x_direction { (0isize, 1isize) } else { (1isize, 0isize) };

    let ql = state.at(il, jl);
    let qr = state.at(ir, jr);
    let ql_minus = state.at(il - step_i, jl - step_j);
    let qr_plus = state.at(ir + step_i, jr + step_j);

    let left = reconstruct(ql_minus, ql, qr, 0.5);
    let right = reconstruct(ql, qr, qr_plus, -0.5);
    rusanov_flux(left, right, x_direction)
}

/// Piecewise-linear reconstruction of the state at a face, `offset` cell
/// widths from the centre cell (+0.5 = right/top face, −0.5 = left/bottom).
fn reconstruct(prev: Conserved, centre: Conserved, next: Conserved, offset: f64) -> Conserved {
    let slope = |a: f64, b: f64, c: f64| minmod(b - a, c - b);
    Conserved {
        rho: centre.rho + offset * slope(prev.rho, centre.rho, next.rho),
        mx: centre.mx + offset * slope(prev.mx, centre.mx, next.mx),
        my: centre.my + offset * slope(prev.my, centre.my, next.my),
        energy: centre.energy + offset * slope(prev.energy, centre.energy, next.energy),
    }
}

fn apply_update(state: &mut EulerState, rhs: &[Conserved], dt: f64) {
    for (cell, r) in state.cells_mut().iter_mut().zip(rhs.iter()) {
        *cell = *cell + r.scale(dt);
    }
}

/// `target = (target + other) / 2` — the final Heun averaging step.
fn average_states(target: &mut EulerState, other: &EulerState) {
    for (a, b) in target.cells_mut().iter_mut().zip(other.cells().iter()) {
        *a = (*a + *b).scale(0.5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler2d::Primitive;
    use crate::problems::Problem;

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
