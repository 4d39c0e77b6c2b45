//! A minimal CSV writer for experiment results (no external dependencies).
//!
//! The experiment harness in `dagfl-bench` emits every figure/table as a
//! CSV series; this module provides the shared formatting so all outputs
//! are consistent and RFC-4180-safe for the values we produce.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Escapes one CSV field (quotes fields containing separators or quotes).
pub fn escape_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Formats a header and rows as a CSV document.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn to_csv_string(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let header_line: Vec<String> = header.iter().map(|h| escape_field(h)).collect();
    let _ = writeln!(out, "{}", header_line.join(","));
    for row in rows {
        assert_eq!(
            row.len(),
            header.len(),
            "row width {} does not match header width {}",
            row.len(),
            header.len()
        );
        let fields: Vec<String> = row.iter().map(|f| escape_field(f)).collect();
        let _ = writeln!(out, "{}", fields.join(","));
    }
    out
}

/// Writes a CSV document to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Propagates I/O errors.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = File::create(path)?;
    file.write_all(to_csv_string(header, rows).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_are_untouched() {
        assert_eq!(escape_field("abc"), "abc");
        assert_eq!(escape_field("1.5"), "1.5");
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        assert_eq!(escape_field("a,b"), "\"a,b\"");
    }

    #[test]
    fn quotes_are_doubled() {
        assert_eq!(escape_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn document_layout() {
        let csv = to_csv_string(
            &["round", "accuracy"],
            &[
                vec!["0".into(), "0.5".into()],
                vec!["1".into(), "0.75".into()],
            ],
        );
        assert_eq!(csv, "round,accuracy\n0,0.5\n1,0.75\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        to_csv_string(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn write_csv_creates_directories() {
        let dir = std::env::temp_dir().join("dagfl_csv_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        write_csv(&path, &["x"], &[vec!["1".into()]]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
