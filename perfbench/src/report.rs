//! The human report and the final JSON line.

use std::fmt::Write as _;

use crate::digest;
use crate::measure::{Metric, Outcome};
use crate::workload::Workload;

/// Formats `metrics` as the JSON `metrics` object. Values keep every
/// digit (`f64`'s shortest round-trip form); non-finite values, which no
/// metric should produce, are written as zero.
fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}

/// The last line of standard output.
pub(crate) fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics = if trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics_json(metrics)
    )
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

pub(crate) fn print(w: Workload, trace: bool, out: &Outcome) {
    println!("ops ({} passes):", out.passes);
    for (label, d) in out.labels.iter().zip(&out.digests) {
        let d = d.map_or_else(|| "-".to_string(), digest::hex);
        println!("  {:<22} digest {d}", label);
    }
    print_metrics(&format!("end-to-end ({}):", w.name()), &out.end_to_end);
    print_metrics("also measured:", &out.notes);
    if let Some(l) = &out.ledger {
        println!("ledger (host ns per delivered event):");
        for (layer, ns) in &l.rows {
            println!("  {layer:<22} {ns:>10.3}");
        }
        println!("  {:<22} {:>10.3}", "core.system.remainder", l.remainder);
        println!("  {:<22} {:>10.3}", "= ns_per_event", l.ns_per_event);
    }
    if !out.span_self_s.is_empty() {
        println!("span self time (traced executions):");
        for (name, s) in &out.span_self_s {
            println!("  {name:<22} {s:>10.4} s");
        }
    }
    if let Some(path) = &out.spans_file {
        println!("spans written to {path}");
    }
    if trace {
        print_metrics("per-layer:", &out.per_layer);
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    println!("{}", result_line(out, trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_one_json_object() {
        let out = Outcome {
            attempted: 3,
            end_to_end: vec![Metric {
                name: "ns_per_event".into(),
                value: 123.456_789_012_345,
                unit: "ns",
            }],
            ..Outcome::default()
        };
        let line = result_line(&out, false);
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        assert!(v.as_object().is_some());
        assert!(line.contains("123.456789012345"), "{line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }
}
