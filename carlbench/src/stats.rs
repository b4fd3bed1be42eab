//! Latency summaries, process memory and the run's provenance.

use std::path::Path;
use std::time::Duration;

/// Fewest samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Median and tail of one latency series, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    pub max: f64,
    /// Samples strictly beyond the p95 rank; below [`TAIL_SAMPLES`] the
    /// p95 is not supported by the run and the run record says so.
    pub beyond_p95: usize,
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
fn rank(sorted: &[f64], q: f64) -> usize {
    let n = sorted.len();
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p95 = rank(&sorted, 0.95);
        Self {
            n: sorted.len(),
            p50: sorted[rank(&sorted, 0.50)],
            p95: sorted[p95],
            max: sorted[sorted.len() - 1],
            beyond_p95: sorted.len() - 1 - p95,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"n\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"max_ms\": {}, \"beyond_p95\": {}, \"p95_supported\": {}}}",
            self.n,
            self.p50,
            self.p95,
            self.max,
            self.beyond_p95,
            self.beyond_p95 >= TAIL_SAMPLES
        )
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median of a non-empty series.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// High-water resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the benchmark reads its peak memory from /proc/self/status (Linux)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, when the tree is a git work tree.
pub fn commit_hash(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the sources the benchmark builds (manifests, lock files,
/// `.rs` files under `crates/`, `vendor/` and this package), in path
/// order. Identifies the measured code even where no git metadata exists.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && name != "out" {
                    walk(&path, out);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "vendor", "carlbench"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&file).unwrap_or_default();
        for byte in rel.bytes().chain(body) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_keeps_ten_samples_beyond_it_at_200() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!((s.n, s.p50, s.p95, s.max), (200, 100.0, 190.0, 200.0));
        assert_eq!(s.beyond_p95, TAIL_SAMPLES);
    }
}
