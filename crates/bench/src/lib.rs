//! Shared helpers for the experiment regenerators (`src/bin/*`) and the
//! criterion benches.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// The results directory (`./results`, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("cannot create results/");
    dir
}

/// Writes a CSV file into `results/` and reports the path on stdout.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path).expect("cannot create CSV");
    writeln!(f, "{header}").unwrap();
    for row in rows {
        writeln!(f, "{row}").unwrap();
    }
    println!("  -> wrote {}", path.display());
    path
}

/// Pretty separator for experiment banners.
pub fn banner(title: &str) {
    println!("\n==== {title} {}", "=".repeat(66usize.saturating_sub(title.len())));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_created() {
        let d = results_dir();
        assert!(d.exists());
    }
}
