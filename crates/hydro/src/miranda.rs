//! The Miranda stand-in: `velocityx` snapshots of a mixing simulation, one
//! 2D slice each, like the paper's slices along axis 0 of the Miranda
//! volume.

use crate::problems::Problem;
use crate::solver::{Euler2DSolver, SolverConfig};
use lcc_grid::Field2D;

/// Configuration of the Miranda-proxy dataset generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MirandaProxyConfig {
    /// Rows of each 2D slice (the paper's slices are 384×384).
    pub ny: usize,
    /// Columns of each 2D slice.
    pub nx: usize,
    /// Number of slices along axis 0 (the paper's volume has 256; the study
    /// analyses a handful of equally spaced ones).
    pub n_slices: usize,
    /// Solver steps between consecutive snapshots; more steps = more
    /// developed turbulence and larger slice-to-slice differences.
    pub steps_between_snapshots: usize,
    /// Which mixing problem to run.
    pub problem: Problem,
    /// Seed for the interface perturbations.
    pub seed: u64,
}

impl Default for MirandaProxyConfig {
    fn default() -> Self {
        MirandaProxyConfig {
            ny: 128,
            nx: 128,
            n_slices: 8,
            steps_between_snapshots: 40,
            problem: Problem::KelvinHelmholtz,
            seed: 2021,
        }
    }
}

impl MirandaProxyConfig {
    /// A configuration with the full paper-scale slice size (384×384,
    /// 16 slices). Substantially slower; meant for `--full-paper-scale`
    /// figure runs.
    pub fn paper_scale(problem: Problem, seed: u64) -> Self {
        MirandaProxyConfig {
            ny: 384,
            nx: 384,
            n_slices: 16,
            steps_between_snapshots: 60,
            problem,
            seed,
        }
    }
}

/// Generates Miranda-like `velocityx` slices by running the Euler solver
/// and collecting snapshots.
#[derive(Debug, Clone)]
pub struct MirandaProxy {
    config: MirandaProxyConfig,
}

impl MirandaProxy {
    /// Create a generator.
    pub fn new(config: MirandaProxyConfig) -> Self {
        assert!(config.n_slices > 0, "at least one slice is required");
        assert!(config.ny > 1 && config.nx > 1, "slices must be at least 2x2");
        MirandaProxy { config }
    }

    /// The active configuration.
    pub fn config(&self) -> MirandaProxyConfig {
        self.config
    }

    /// Run the simulation and return `n_slices` `velocityx` snapshots of
    /// `ny × nx`. Every slice is separated from the next by
    /// `steps_between_snapshots` solver steps (including a warm-up of the
    /// same length before the first snapshot, so even slice 0 contains
    /// developed flow rather than the layered initial condition); the
    /// correlation structure therefore evolves from smooth large-scale
    /// structure to developed multi-scale turbulence across the slices — the
    /// heterogeneity the paper's per-slice analysis needs.
    pub fn generate_velocityx_slices(&self) -> Vec<Field2D> {
        let cfg = &self.config;
        let state = cfg.problem.initial_state(cfg.ny, cfg.nx, cfg.seed);
        let mut solver = Euler2DSolver::new(state, SolverConfig::default());

        let mut slices = Vec::with_capacity(cfg.n_slices);
        for _ in 0..cfg.n_slices {
            solver.run_steps(cfg.steps_between_snapshots);
            slices.push(solver.state().velocity_x());
        }
        slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::stats;

    fn small_config() -> MirandaProxyConfig {
        MirandaProxyConfig {
            ny: 40,
            nx: 40,
            n_slices: 4,
            steps_between_snapshots: 15,
            problem: Problem::KelvinHelmholtz,
            seed: 7,
        }
    }

    #[test]
    fn slice_shapes_match_config() {
        let slices = MirandaProxy::new(small_config()).generate_velocityx_slices();
        assert_eq!(slices.len(), 4);
        for slice in &slices {
            assert_eq!(slice.shape(), (40, 40));
            assert!(slice.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn slices_differ_and_evolve() {
        let slices = MirandaProxy::new(small_config()).generate_velocityx_slices();
        assert_eq!(slices.len(), 4);
        // Later slices differ from the initial one.
        assert!(slices[0].max_abs_diff(&slices[3]) > 1e-3);
        // Transverse mixing grows the variance structure of velocityx over
        // time relative to the initial layered profile's bimodal values.
        let first_std = stats::std_dev(slices[0].as_slice());
        assert!(first_std > 0.0);
    }

    #[test]
    fn generation_is_reproducible() {
        let a = MirandaProxy::new(small_config()).generate_velocityx_slices();
        let b = MirandaProxy::new(small_config()).generate_velocityx_slices();
        assert_eq!(a, b);
        let mut other = small_config();
        other.seed = 8;
        let c = MirandaProxy::new(other).generate_velocityx_slices();
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn zero_slices_panics() {
        let mut cfg = small_config();
        cfg.n_slices = 0;
        let _ = MirandaProxy::new(cfg);
    }
}
