//! Tiny CSV writer for the `repro` binary's artifact output.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Writes rows of `f64` columns with a header to `path` (directories are
/// created as needed). Each value is written in the shortest scientific
/// form that parses back to the same `f64`, so a one-ulp change to any
/// value changes the file's bytes.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(
    path: &Path,
    header: &[&str],
    rows: impl IntoIterator<Item = Vec<f64>>,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut body = String::new();
    body.push_str(&header.join(","));
    body.push('\n');
    for row in rows {
        let mut first = true;
        for v in row {
            if !first {
                body.push(',');
            }
            let _ = write!(body, "{v:e}");
            first = false;
        }
        body.push('\n');
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        let dir = std::env::temp_dir().join("lcosc_csv_test");
        let path = dir.join("t.csv");
        write_csv(&path, &["a", "b"], vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.starts_with("a,b\n"));
        assert_eq!(s.lines().count(), 3);
        assert_eq!(s, "a,b\n1e0,2e0\n3e0,4e0\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn values_round_trip_to_the_bit() {
        let dir = std::env::temp_dir().join("lcosc_csv_round_trip");
        let path = dir.join("t.csv");
        let v: f64 = 2.771613091234567;
        let next = f64::from_bits(v.to_bits() + 1);
        write_csv(&path, &["v"], vec![vec![v], vec![next]]).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        let parsed: Vec<f64> = s.lines().skip(1).map(|l| l.parse().unwrap()).collect();
        assert_eq!(parsed, vec![v, next]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
