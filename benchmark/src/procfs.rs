//! Process accounting and the description of the machine a result came from.

use crate::json::Json;
use std::process::Command;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `sysconf(_SC_CLK_TCK)`
/// is 100 on every Linux target this workspace builds for; reading it would
/// need libc, which is not available offline.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process has consumed, all threads
/// included (also threads that have already exited).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let after_name = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = after_name.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (ticks() + ticks()) / CLOCK_TICKS_PER_SECOND
}

/// Peak resident set size so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

/// The runner a number was taken on. A number without it does not count
/// (ROADMAP aim 1), so it heads every result.
#[derive(Debug, Clone)]
pub struct Runner {
    pub cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub simd_feature: &'static str,
    pub commit: String,
    pub seed: u64,
}

impl Runner {
    pub fn detect(seed: u64) -> Runner {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Runner {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            simd_feature: simd_feature(),
            // Outside a git checkout (the benchmark driver's copy) there is
            // no commit to name.
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
            seed,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cores", Json::Num(self.cores as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(&self.rustc)),
            ("simd_feature", Json::str(self.simd_feature)),
            ("commit", Json::str(&self.commit)),
            ("seed", Json::Num(self.seed as f64)),
        ])
    }
}

impl std::fmt::Display for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "runner {{ cores: {}, cpu_model: \"{}\", rustc: \"{}\", simd_feature: {}, commit: {}, seed: {} }}",
            self.cores, self.cpu_model, self.rustc, self.simd_feature, self.commit, self.seed
        )
    }
}

/// First output line of `program args…`, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The widest SIMD extension the binary was compiled for (the linalg kernels
/// are hand-unrolled scalar code the compiler vectorizes to this width).
fn simd_feature() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512f"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else if cfg!(target_feature = "neon") {
        "neon"
    } else {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_accounting_reads_sane_values() {
        let before = cpu_seconds();
        let mut acc = 0u64;
        for i in 0..200_000_000u64 {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.5);
        assert!(Runner::detect(3).cores >= 1);
    }
}
