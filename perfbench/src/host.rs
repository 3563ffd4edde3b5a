//! Host fingerprint and process memory high-water.
//!
//! Host-time numbers are only comparable on the same host, so every run
//! prints the fingerprint it was measured on.

use std::fs;

/// What a host-time number depends on besides the code.
#[derive(Debug, Clone)]
pub(crate) struct Fingerprint {
    nproc: usize,
    cpu: String,
    rustc: &'static str,
    commit: String,
}

impl Fingerprint {
    pub(crate) fn collect() -> Self {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            commit: commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub(crate) fn describe(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
            self.nproc, self.cpu, self.rustc, self.commit
        )
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `None` outside a git checkout.
fn commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(hash, _)| hash.to_string())
}

/// Resets the process's resident-set high-water mark so the next
/// [`peak_rss_mb`] covers only what runs after this call. Best effort:
/// where the kernel refuses, the peak also covers earlier work.
pub(crate) fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Resident-set high-water mark in MiB (`VmHWM`), or `None` where the
/// kernel does not report it.
pub(crate) fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
