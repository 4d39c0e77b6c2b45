//! Result output: CSVs under a results directory plus stdout tables.

use std::path::{Path, PathBuf};

use dagfl_core::csv::{to_csv_string, write_csv};

/// The results directory for a given value of `DAGFL_RESULTS`: that path
/// when the variable is set, `results/` otherwise. `reproduce` reads the
/// variable once and hands the directory down.
pub fn results_dir(var: Option<String>) -> PathBuf {
    var.map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Writes a result series as `<dir>/<name>.csv` under the given header
/// line (plain column names, comma-separated), echoes it to stdout and
/// returns the path written.
///
/// # Panics
///
/// Panics on I/O errors (experiments should fail loudly) or if a row's
/// width differs from the header's.
pub fn emit(dir: &Path, name: &str, header: &str, rows: &[Vec<String>]) -> PathBuf {
    let header: Vec<&str> = header.split(',').collect();
    let path = dir.join(format!("{name}.csv"));
    write_csv(&path, &header, rows).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("--- {name} (written to {}) ---", path.display());
    print!("{}", to_csv_string(&header, rows));
    println!();
    path
}

/// Formats a float column value, `f32` or `f64` (the widening is exact,
/// so an `f32` prints the digits it always did).
pub fn f(v: impl Into<f64>) -> String {
    format!("{:.4}", v.into())
}

/// Formats an integer column value.
pub fn int(v: usize) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters_are_stable() {
        assert_eq!(f(0.123456), "0.1235");
        assert_eq!(f(1.0f32), "1.0000");
        assert_eq!(f(0.1f32), format!("{:.4}", 0.1f32));
        assert_eq!(int(42), "42");
    }

    #[test]
    fn results_dir_honours_env() {
        assert_eq!(
            results_dir(Some("/tmp/elsewhere".into())),
            PathBuf::from("/tmp/elsewhere")
        );
        assert_eq!(results_dir(None), PathBuf::from("results"));
    }
}
