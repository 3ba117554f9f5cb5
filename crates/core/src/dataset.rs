//! Labelled field collections: the datasets of Section IV-A.

use lcc_grid::Field2D;
use lcc_hydro::{MirandaProxy, MirandaProxyConfig, Problem};
use lcc_par::{parallel_map_with, ThreadPoolConfig};
use lcc_synth::{
    generate_multi_range, generate_single_range, GaussianFieldConfig, MultiRangeConfig,
};

/// A field together with the metadata the figures need.
#[derive(Debug, Clone)]
pub struct LabeledField {
    /// Human-readable name (used in CSV output).
    pub name: String,
    /// The data.
    pub field: Field2D,
    /// Ground-truth correlation range for synthetic fields (grid units);
    /// `None` for application data.
    pub true_range: Option<f64>,
}

impl LabeledField {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, field: Field2D, true_range: Option<f64>) -> Self {
        LabeledField { name: name.into(), field, true_range }
    }
}

/// Generator for the three dataset families used by the study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyDatasets {
    /// Side length of the synthetic Gaussian fields (the paper uses 1028).
    pub gaussian_size: usize,
    /// Number of distinct correlation ranges in the sweep.
    pub n_ranges: usize,
    /// Smallest correlation range of the sweep (grid units).
    pub min_range: f64,
    /// Largest correlation range of the sweep (grid units).
    pub max_range: f64,
    /// Independent realizations per range (adds scatter like the paper's dots).
    pub replicates: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for StudyDatasets {
    fn default() -> Self {
        StudyDatasets {
            gaussian_size: 256,
            n_ranges: 10,
            min_range: 2.0,
            max_range: 40.0,
            replicates: 2,
            seed: 2021,
        }
    }
}

impl StudyDatasets {
    /// A small configuration for this crate's unit tests.
    #[cfg(test)]
    pub(crate) fn tiny() -> Self {
        StudyDatasets {
            gaussian_size: 64,
            n_ranges: 3,
            min_range: 2.0,
            max_range: 10.0,
            replicates: 1,
            seed: 7,
        }
    }

    /// The paper-scale configuration (1028×1028 fields).
    pub fn paper_scale() -> Self {
        StudyDatasets { gaussian_size: 1028, n_ranges: 12, replicates: 3, ..Default::default() }
    }

    /// The geometrically spaced correlation ranges of the sweep.
    pub fn ranges(&self) -> Vec<f64> {
        assert!(self.n_ranges >= 1, "at least one range is required");
        if self.n_ranges == 1 {
            return vec![self.min_range];
        }
        let log_min = self.min_range.ln();
        let log_max = self.max_range.ln();
        (0..self.n_ranges)
            .map(|k| (log_min + (log_max - log_min) * k as f64 / (self.n_ranges - 1) as f64).exp())
            .collect()
    }

    /// Single-range Gaussian fields, one per (range, replicate), range-major.
    /// They are generated in parallel; each field has its own seed, so the
    /// set does not depend on the pool width.
    pub fn single_range_fields(&self) -> Vec<LabeledField> {
        self.per_cell(ThreadPoolConfig::auto(), Self::single_range_field)
    }

    /// Multi-range Gaussian fields: each combines a sweep range with a fixed
    /// long-range component contributing equally (the paper's construction).
    /// Ordered and generated like [`StudyDatasets::single_range_fields`].
    pub fn multi_range_fields(&self) -> Vec<LabeledField> {
        self.per_cell(ThreadPoolConfig::auto(), Self::multi_range_field)
    }

    /// The single-range field of range `range` (index `ri`), replicate `rep`.
    fn single_range_field(&self, ri: usize, range: f64, rep: usize) -> LabeledField {
        let seed = self.seed + (ri as u64) * 131 + rep as u64;
        let field = generate_single_range(&GaussianFieldConfig::new(
            self.gaussian_size,
            self.gaussian_size,
            range,
            seed,
        ));
        LabeledField::new(format!("gauss-single-a{range:.1}-r{rep}"), field, Some(range))
    }

    /// The multi-range field of range `range` (index `ri`), replicate `rep`.
    fn multi_range_field(&self, ri: usize, range: f64, rep: usize) -> LabeledField {
        let long_component = self.max_range;
        let seed = self.seed + 10_000 + (ri as u64) * 131 + rep as u64;
        let field = generate_multi_range(&MultiRangeConfig::two_ranges(
            self.gaussian_size,
            self.gaussian_size,
            range,
            long_component,
            seed,
        ));
        LabeledField::new(
            format!("gauss-multi-a{range:.1}+{long_component:.1}-r{rep}"),
            field,
            Some(range),
        )
    }

    /// `make(self, range index, range, replicate)` for every (range,
    /// replicate) of the sweep, range-major, on `pool`.
    fn per_cell(
        &self,
        pool: ThreadPoolConfig,
        make: fn(&Self, usize, f64, usize) -> LabeledField,
    ) -> Vec<LabeledField> {
        let cells: Vec<(usize, f64, usize)> = (self.ranges().into_iter().enumerate())
            .flat_map(|(ri, range)| (0..self.replicates).map(move |rep| (ri, range, rep)))
            .collect();
        parallel_map_with(pool, &cells, |&(ri, range, rep)| make(self, ri, range, rep))
    }

    /// Miranda-proxy velocityx slices (the application dataset).
    pub fn miranda_slices(&self, slices: usize, slice_size: usize) -> Vec<LabeledField> {
        let config = MirandaProxyConfig {
            ny: slice_size,
            nx: slice_size,
            n_slices: slices,
            steps_between_snapshots: 40,
            problem: Problem::KelvinHelmholtz,
            seed: self.seed,
        };
        MirandaProxy::new(config)
            .generate_velocityx_slices()
            .into_iter()
            .enumerate()
            .map(|(k, field)| LabeledField::new(format!("miranda-velocityx-slice{k}"), field, None))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_geometric_and_span_the_bounds() {
        let d =
            StudyDatasets { n_ranges: 5, min_range: 2.0, max_range: 32.0, ..Default::default() };
        let r = d.ranges();
        assert_eq!(r.len(), 5);
        assert!((r[0] - 2.0).abs() < 1e-9);
        assert!((r[4] - 32.0).abs() < 1e-9);
        // Geometric spacing: constant ratio.
        let ratio = r[1] / r[0];
        for w in r.windows(2) {
            assert!((w[1] / w[0] - ratio).abs() < 1e-9);
        }
        let single = StudyDatasets { n_ranges: 1, ..Default::default() };
        assert_eq!(single.ranges(), vec![single.min_range]);
    }

    #[test]
    fn single_range_set_has_one_field_per_cell() {
        let d = StudyDatasets::tiny();
        let fields = d.single_range_fields();
        assert_eq!(fields.len(), d.n_ranges * d.replicates);
        for f in &fields {
            assert_eq!(f.field.shape(), (64, 64));
            assert!(f.true_range.is_some());
            assert!(f.name.contains("gauss-single"));
        }
    }

    #[test]
    fn multi_range_set_is_distinct_from_single_range() {
        let d = StudyDatasets::tiny();
        let single = d.single_range_fields();
        let multi = d.multi_range_fields();
        assert_eq!(multi.len(), single.len());
        assert_ne!(single[0].field, multi[0].field);
        assert!(multi[0].name.contains("multi"));
    }

    #[test]
    fn miranda_slices_are_labeled_and_sized() {
        let d = StudyDatasets::tiny();
        let slices = d.miranda_slices(3, 48);
        assert_eq!(slices.len(), 3);
        for (k, s) in slices.iter().enumerate() {
            assert_eq!(s.field.shape(), (48, 48));
            assert!(s.true_range.is_none());
            assert!(s.name.ends_with(&format!("slice{k}")));
        }
    }

    #[test]
    fn generation_is_reproducible_and_independent_of_the_pool_width() {
        let d = StudyDatasets { replicates: 2, ..StudyDatasets::tiny() };
        for family in [StudyDatasets::single_range_field, StudyDatasets::multi_range_field] {
            let a = d.per_cell(ThreadPoolConfig::with_threads(1), family);
            let b = d.per_cell(ThreadPoolConfig::with_threads(4), family);
            assert_eq!(a.len(), d.n_ranges * d.replicates);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!((&x.name, &x.field, x.true_range), (&y.name, &y.field, y.true_range));
            }
            // Range-major: the replicates of one range are adjacent.
            assert!(a[0].name.ends_with("-r0") && a[1].name.ends_with("-r1"));
            assert_eq!(a[0].true_range, a[1].true_range);
        }
    }
}
