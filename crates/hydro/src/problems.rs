//! Initial conditions for the mixing problem the Miranda proxy runs.

use crate::euler2d::{EulerState, Primitive};
use lcc_synth::GaussianSampler;

/// The flow problem to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// A perturbed double shear layer: bands of opposite x-velocity with a
    /// density contrast; the interface rolls up into a street of vortices.
    KelvinHelmholtz,
}

impl Problem {
    /// Short identifier used in file names and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Problem::KelvinHelmholtz => "kelvin-helmholtz",
        }
    }

    /// Build the initial state on an `ny × nx` grid. `seed` controls the
    /// random interface perturbations so different realizations produce
    /// different (but reproducible) turbulent structure.
    pub fn initial_state(&self, ny: usize, nx: usize, seed: u64) -> EulerState {
        let mut sampler = GaussianSampler::new(seed);
        // Small random phases/amplitudes for a handful of perturbation modes.
        let modes: Vec<(f64, f64, f64)> = (1..=6)
            .map(|m| (m as f64, sampler.uniform() * std::f64::consts::TAU, 0.3 + sampler.uniform()))
            .collect();
        let perturb = move |x: f64| -> f64 {
            modes
                .iter()
                .map(|&(m, phase, amp)| amp * (std::f64::consts::TAU * m * x + phase).sin())
                .sum::<f64>()
                / modes.len() as f64
        };

        match self {
            Problem::KelvinHelmholtz => EulerState::from_fn(ny, nx, |y, x| {
                // Two interfaces at y = 0.25 and y = 0.75.
                let in_band = (0.25..0.75).contains(&y);
                let (rho, u) = if in_band { (2.0, 0.5) } else { (1.0, -0.5) };
                // Velocity perturbation concentrated near the interfaces.
                let d1 = (y - 0.25).abs();
                let d2 = (y - 0.75).abs();
                let envelope = (-d1 * d1 / 0.002).exp() + (-d2 * d2 / 0.002).exp();
                let v = 0.05 * perturb(x) * envelope;
                Primitive { rho, u, v, p: 2.5 }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Problem::KelvinHelmholtz.name(), "kelvin-helmholtz");
    }

    #[test]
    fn kelvin_helmholtz_has_opposed_streams() {
        let s = Problem::KelvinHelmholtz.initial_state(64, 64, 3);
        let u = s.velocity_x();
        // Central band moves one way, outer bands the other.
        assert!(u.get(32, 10) > 0.0);
        assert!(u.get(4, 10) < 0.0);
        // Density contrast between bands.
        let rho = s.density();
        assert!(rho.get(32, 0) > rho.get(4, 0));
    }

    #[test]
    fn different_seeds_give_different_perturbations() {
        let a = Problem::KelvinHelmholtz.initial_state(32, 32, 1);
        let b = Problem::KelvinHelmholtz.initial_state(32, 32, 2);
        assert_ne!(a, b);
        let c = Problem::KelvinHelmholtz.initial_state(32, 32, 1);
        assert_eq!(a, c);
    }

    #[test]
    fn initial_states_are_finite_and_positive() {
        let s = Problem::KelvinHelmholtz.initial_state(48, 40, 9);
        for cell in s.cells() {
            let w = cell.to_primitive();
            assert!(w.rho > 0.0 && w.p > 0.0);
            assert!(w.u.is_finite() && w.v.is_finite());
        }
    }
}
