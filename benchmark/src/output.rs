//! Metric records, the end-to-end metric set, and the result line.

use duplo_sim::json::Json;

use crate::stats::{median, percentile, tail_percentile};

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit (`s`, `ms`, `us`, `ns`, `1/s`, `MB`, `kB`, `frac`, `count`, `cycles`).
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Whether `name` is a legal metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The end-to-end metric names, in output order.
pub const END_TO_END: [&str; 6] = [
    "iter_s",
    "ops_per_s",
    "p50_ms",
    "tail_ms",
    "setup_s",
    "peak_rss_mb",
];

/// Raw timings of one untraced run, from which the end-to-end metrics
/// are derived.
#[derive(Clone, Debug, Default)]
pub struct Timings {
    /// Seconds of each repeated set-up.
    pub setups: Vec<f64>,
    /// Seconds of each timed pass.
    pub passes: Vec<f64>,
    /// Milliseconds of each timed operation.
    pub op_ms: Vec<f64>,
    /// Seconds the timed loop ran.
    pub loop_s: f64,
    /// Highest percentile the tail metric may report for this workload.
    pub tail_cap: f64,
}

impl Timings {
    /// `iter_s`, `ops_per_s`, `p50_ms`, `tail_ms`, `setup_s`, `peak_rss_mb`,
    /// plus a human-readable line per metric with its sample count.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> (Vec<Metric>, Vec<String>) {
        let n_ops = self.op_ms.len();
        let tail_p = tail_percentile(n_ops, self.tail_cap).unwrap_or(50.0);
        let values = [
            (median(&self.passes), "s"),
            (n_ops as f64 / self.loop_s, "1/s"),
            (median(&self.op_ms), "ms"),
            (percentile(&self.op_ms, tail_p), "ms"),
            (median(&self.setups), "s"),
            (peak_rss_mb, "MB"),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(name, (value, unit))| metric(name, value, unit))
            .collect();
        let notes = vec![
            format!("median of {} passes", self.passes.len()),
            format!("{n_ops} ops in {:.3} s", self.loop_s),
            format!("median of {n_ops} ops"),
            format!("p{tail_p} of {n_ops} ops"),
            format!("median of {} set-ups", self.setups.len()),
            "VmHWM before any traced phase".to_string(),
        ];
        (metrics, notes)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints one aligned metric table to stdout.
pub fn print_table(title: &str, metrics: &[Metric], notes: &[String]) {
    println!("{title}");
    for (i, m) in metrics.iter().enumerate() {
        let note = notes.get(i).map(String::as_str).unwrap_or("");
        println!("  {:<26} {:>16.6} {:<6} {note}", m.name, m.value, m.unit);
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` on
/// one line.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut fields = Vec::new();
    for m in metrics {
        assert!(valid_name(&m.name), "illegal metric name {:?}", m.name);
        fields.push((
            m.name.clone(),
            Json::obj()
                .field("value", m.value)
                .field("unit", m.unit)
                .build(),
        ));
    }
    Json::obj()
        .field("correct", failed == 0 && attempted > 0)
        .field("attempted", attempted.max(1))
        .field("failed", failed)
        .field("metrics", Json::Obj(fields))
        .build()
        .to_canonical()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_checked() {
        for ok in ["iter_s", "core.probe_ns", "a-b.c_9"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "a b", "p99%", "x/y"] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(END_TO_END.iter().all(|n| valid_name(n)));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(3, 0, &[metric("iter_s", 1.25, "s")]);
        assert!(!line.contains('\n'));
        let doc = duplo_sim::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let m = doc.get("metrics").and_then(|m| m.get("iter_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
