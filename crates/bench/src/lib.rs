//! Shared helpers for the benchmark harness.
//!
//! Every paper table/figure has a dedicated bench target (`harness = false`)
//! that prints the corresponding rows. Environment flags:
//!
//! * `HDMM_LARGE=1` — include the largest paper configurations (slower);
//! * `HDMM_TRIALS=k` — trials for data-dependent mechanisms (default small).

use std::time::Instant;

/// True when the large (paper-scale) configurations were requested.
pub fn large_runs() -> bool {
    std::env::var("HDMM_LARGE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Number of trials for empirical (data-dependent) error estimates.
pub fn trials(default: usize) -> usize {
    std::env::var("HDMM_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Formats an error-ratio cell the way the paper prints Table 3: `-` for
/// not-applicable, `*` for not-scalable, otherwise the ratio.
pub fn cell(r: Option<f64>) -> String {
    match r {
        None => "-".to_string(),
        Some(v) if !v.is_finite() => "*".to_string(),
        Some(v) if v >= 1000.0 => format!("{v:.0}"),
        Some(v) => format!("{v:.2}"),
    }
}

/// Prints a header + aligned rows as a text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.len());
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// The paper's error ratio: `√(other/hdmm)`.
pub fn ratio(other: f64, hdmm: f64) -> f64 {
    (other / hdmm).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formatting() {
        assert_eq!(cell(None), "-");
        assert_eq!(cell(Some(f64::INFINITY)), "*");
        assert_eq!(cell(Some(1.234)), "1.23");
        assert_eq!(cell(Some(66700.0)), "66700");
    }

    #[test]
    fn ratio_is_sqrt_scale() {
        assert!((ratio(4.0, 1.0) - 2.0).abs() < 1e-12);
    }
}
