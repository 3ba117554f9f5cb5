//! Portable text/binary exports and imports for fields.
//!
//! The study never needs a heavyweight format: figures are CSV series, field
//! previews are PGM images (Figure 2), and raw `f64` dumps round-trip fields
//! between the hydro solver and offline analysis.

use crate::{Field2D, GridError};
use std::io::Read;
use std::path::Path;

/// Render a field to an 8-bit binary PGM (grey-scale) image, linearly mapping
/// `[min, max]` to `[0, 255]`. Used to regenerate the Figure 2 previews.
pub fn write_pgm<P: AsRef<Path>>(field: &Field2D, path: P) -> Result<(), GridError> {
    let s = field.summary();
    let range = if s.range() > 0.0 { s.range() } else { 1.0 };
    let mut bytes = Vec::with_capacity(64 + field.len());
    bytes.extend_from_slice(format!("P5\n{} {}\n255\n", field.nx(), field.ny()).as_bytes());
    for &v in field.as_slice() {
        let g = ((v - s.min) / range * 255.0).round().clamp(0.0, 255.0) as u8;
        bytes.push(g);
    }
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Write a 2D field as raw little-endian `f64` values preceded by no header.
/// The shape must be carried externally (as SDRBench does for Miranda).
pub fn write_raw_f64<P: AsRef<Path>>(data: &[f64], path: P) -> Result<(), GridError> {
    let mut bytes = Vec::with_capacity(data.len() * 8);
    for &v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Read raw little-endian `f64` values into a 2D field of the given shape.
/// An `n0 × n1 × n2` volume (SDRBench's Miranda layout) reads as
/// `read_raw_f64_2d(n0 * n1, n2, path)`: slice `k` is then
/// `field.view().subview(k * n1, 0, n1, n2)`.
pub fn read_raw_f64_2d<P: AsRef<Path>>(
    ny: usize,
    nx: usize,
    path: P,
) -> Result<Field2D, GridError> {
    let data = read_raw_f64(path, ny.checked_mul(nx))?;
    Field2D::from_vec(ny, nx, data)
}

/// Read exactly `values` little-endian `f64`s: `None` is a shape whose
/// element count overflows `usize`, which no file matches.
fn read_raw_f64<P: AsRef<Path>>(path: P, values: Option<usize>) -> Result<Vec<f64>, GridError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    let expected = values.and_then(|n| n.checked_mul(8));
    if expected != Some(bytes.len()) {
        let expected = expected.unwrap_or(usize::MAX);
        return Err(GridError::ShapeMismatch { expected, actual: bytes.len() });
    }
    Ok(bytes.chunks_exact(8).map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes"))).collect())
}

/// A minimal CSV series writer for figure outputs: a header row followed by
/// numeric rows. Keeps every figure binary free of ad-hoc formatting code.
#[derive(Debug, Clone)]
pub struct CsvSeries {
    header: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl CsvSeries {
    /// Create a series with the given column names.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(columns: I) -> Self {
        CsvSeries { header: columns.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row; its length must match the header.
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.header.len(), "row length must match the header");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the series holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column names.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Serialize to CSV text.
    pub fn to_csv_string(&self) -> String {
        let mut s = String::new();
        s.push_str(&self.header.join(","));
        s.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:.10}")).collect();
            s.push_str(&cells.join(","));
            s.push('\n');
        }
        s
    }

    /// Write the CSV text to a file, creating parent directories when needed.
    pub fn write<P: AsRef<Path>>(&self, path: P) -> Result<(), GridError> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv_string())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lcc_grid_io_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn pgm_header_and_size() {
        let f = Field2D::from_fn(3, 5, |i, j| (i + j) as f64);
        let path = tmp("a.pgm");
        write_pgm(&f, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P5\n5 3\n255\n"));
        assert_eq!(bytes.len(), b"P5\n5 3\n255\n".len() + 15);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pgm_constant_field_does_not_divide_by_zero() {
        let f = Field2D::filled(2, 2, 7.0);
        let path = tmp("b.pgm");
        write_pgm(&f, &path).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn raw_f64_roundtrip_2d() {
        let f = Field2D::from_fn(4, 3, |i, j| i as f64 * 0.25 - j as f64 * 1.5);
        let path = tmp("c.bin");
        write_raw_f64(f.as_slice(), &path).unwrap();
        let g = read_raw_f64_2d(4, 3, &path).unwrap();
        assert_eq!(f, g);
        // Wrong shape is rejected.
        assert!(read_raw_f64_2d(4, 4, &path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn volumes_read_as_a_stack_of_slices() {
        let (n0, n1, n2) = (3, 4, 5);
        let value = |k: usize, i: usize, j: usize| (k * 100 + i * 10 + j) as f64;
        let volume: Vec<f64> = (0..n0)
            .flat_map(|k| (0..n1).flat_map(move |i| (0..n2).map(move |j| value(k, i, j))))
            .collect();
        let path = tmp("d.bin");
        write_raw_f64(&volume, &path).unwrap();
        let stack = read_raw_f64_2d(n0 * n1, n2, &path).unwrap();
        for k in 0..n0 {
            let slice = Field2D::from_fn(n1, n2, |i, j| value(k, i, j));
            assert_eq!(stack.view().subview(k * n1, 0, n1, n2).to_field(), slice, "slice {k}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn raw_f64_refuses_shapes_whose_byte_count_overflows() {
        // 2^61 values are 2^64 bytes, which wraps to the empty file's 0.
        let path = tmp("e.bin");
        std::fs::write(&path, []).unwrap();
        let refused = GridError::ShapeMismatch { expected: usize::MAX, actual: 0 };
        assert_eq!(read_raw_f64_2d(1 << 61, 1, &path).unwrap_err(), refused);
        assert_eq!(read_raw_f64_2d(usize::MAX, 2, &path).unwrap_err(), refused);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_series_roundtrip() {
        let mut s = CsvSeries::new(["x", "y"]);
        assert!(s.is_empty());
        s.push_row(vec![1.0, 2.0]);
        s.push_row(vec![3.0, 4.0]);
        assert_eq!(s.len(), 2);
        let text = s.to_csv_string();
        assert!(text.starts_with("x,y\n"));
        assert_eq!(text.lines().count(), 3);
        let path = tmp("f.csv");
        s.write(&path).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("3.0"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn csv_series_rejects_wrong_row_length() {
        let mut s = CsvSeries::new(["x", "y"]);
        s.push_row(vec![1.0]);
    }
}
