//! Output digests: a 64-bit FNV-1a hash of everything a run simulated.
//!
//! Host-time telemetry, the handler profile and the observability
//! sections (metrics, trace events, timeline) are excluded, so a digest
//! changes only when simulated behaviour changes — and two runs that
//! differ only in whether observability was on must agree.

use least_tlb::{RunResult, Table};

/// FNV-1a over `bytes`, continuing from `hash`.
pub(crate) fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a run's simulated results.
pub(crate) fn result(r: &RunResult) -> u64 {
    let mut sim = r.clone();
    sim.telemetry = None;
    sim.profile = None;
    sim.metrics = None;
    sim.trace_events = None;
    sim.timeline = None;
    let json = serde_json::to_string(&sim).expect("results serialize to JSON");
    fnv1a(FNV_OFFSET, json.as_bytes())
}

/// Digest of an experiment runner's rendered table.
pub(crate) fn table(t: &Table) -> u64 {
    fnv1a(FNV_OFFSET, t.to_string().as_bytes())
}

/// Folds several digests (e.g. one op's replays) into one.
pub(crate) fn combine(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(FNV_OFFSET, |h, p| fnv1a(h, &p.to_le_bytes()))
}

pub(crate) fn hex(d: u64) -> String {
    format!("{d:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use least_tlb::{System, SystemConfig, WorkloadSpec};
    use workloads::AppKind;

    fn small_run() -> RunResult {
        let mut cfg = SystemConfig::scaled_down(2);
        cfg.instructions_per_gpu = 20_000;
        System::new(&cfg, &WorkloadSpec::single_app(AppKind::Fir, 2))
            .unwrap()
            .run()
    }

    #[test]
    fn a_perturbed_result_fails_the_digest_check() {
        let r = small_run();
        let d = result(&r);
        assert_eq!(d, result(&small_run()), "runs are deterministic");
        let mut perturbed = r.clone();
        perturbed.apps[0].stats.l2_hits += 1;
        assert_ne!(result(&perturbed), d);
        let mut later = r.clone();
        later.end_cycle += 1;
        assert_ne!(result(&later), d);
    }

    #[test]
    fn host_time_telemetry_is_not_digested() {
        let r = small_run();
        let mut other = r.clone();
        if let Some(t) = other.telemetry.as_mut() {
            t.wall_seconds += 1.0;
        }
        assert_eq!(result(&r), result(&other));
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
        assert_eq!(hex(0xab), "00000000000000ab");
    }
}
