//! # lcc-hydro — a compressible-flow substrate standing in for Miranda
//!
//! The paper's "application" dataset is the `velocityx` field of a Miranda
//! radiation-hydrodynamics simulation of large turbulence (256×384×384,
//! analysed as 2D slices). Miranda itself and its SDRBench snapshot are not
//! redistributable here, so this crate provides the closest synthetic
//! equivalent that exercises the same code paths: a from-scratch 2D
//! **compressible Euler solver** (MUSCL reconstruction with a minmod
//! limiter, Rusanov fluxes, second-order Runge–Kutta time stepping) driving
//! a classic mixing instability Miranda is used for,
//! [`problems::Problem::KelvinHelmholtz`]: a perturbed shear layer that
//! rolls up into vortices.
//!
//! [`miranda::MirandaProxy`] runs a simulation and returns its `velocityx`
//! snapshots as 2D slices, the unit the paper analyses the Miranda volume
//! in, so the downstream analysis (global/local variograms, local SVD,
//! compression sweeps) is identical to what would run on the real
//! dataset. The physical realism that matters for
//! the study — multi-scale spatial correlation, slice-to-slice heterogeneity,
//! smooth large-scale structure with sharp interfaces — is present; absolute
//! compression ratios will differ from the paper's Miranda numbers, the
//! qualitative trends are preserved.

pub mod euler2d;
pub mod miranda;
pub mod problems;
pub mod solver;

pub use euler2d::{Conserved, EulerState, Primitive, GAMMA};
pub use miranda::{MirandaProxy, MirandaProxyConfig};
pub use problems::Problem;
pub use solver::{Euler2DSolver, SolverConfig};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_quickstart_runs() {
        let config = MirandaProxyConfig {
            ny: 32,
            nx: 32,
            n_slices: 3,
            steps_between_snapshots: 5,
            problem: Problem::KelvinHelmholtz,
            seed: 1,
        };
        let slices = MirandaProxy::new(config).generate_velocityx_slices();
        assert_eq!(slices.len(), 3);
        assert!(slices.iter().all(|s| s.shape() == (32, 32)));
        assert!(slices.iter().flat_map(|s| s.as_slice()).all(|v| v.is_finite()));
    }
}
