//! Metric records, percentile helpers, the report fingerprint and the
//! process high-water mark.

use std::fmt::{self, Write as _};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "metric name {name:?} is malformed");
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} recorded twice"
        );
        self.0.push(Metric { name, value, unit });
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

/// Metric names are `[A-Za-z0-9_.-]+`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `p`-th percentile (0–100) of ascending `sorted` by nearest rank;
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (sorted in place); 0 for an empty vector.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// Whether a sample of `count` values has at least ten beyond the `p`-th
/// percentile, the condition for reporting that percentile.
pub fn tail_reportable(count: usize, p: f64) -> bool {
    count as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// Streams `Debug` output through FNV-1a, so the fingerprint of a report
/// never materialises the (possibly tens of MB) rendering.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    hash: u64,
    pub bytes: u64,
}

impl Fingerprint {
    pub fn of(value: &impl fmt::Debug) -> Fingerprint {
        let mut fp = Fingerprint {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        };
        write!(fp, "{value:#?}").expect("hashing cannot fail");
        fp
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

impl fmt::Write for Fingerprint {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
        self.bytes += s.len() as u64;
        Ok(())
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_pattern() {
        for good in [
            "replay_s",
            "core.admit.ns_p50",
            "sim.relay.ns_per_event_2w",
            "a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "a b", "p99%", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(tail_reportable(100, 90.0));
        assert!(!tail_reportable(99, 90.0));
        assert!(tail_reportable(1_000, 99.0));
        assert!(!tail_reportable(999, 99.0));
        assert!(tail_reportable(10_000, 99.9));
        assert!(!tail_reportable(9_999, 99.9));
        // ~20 control-plane samples support a median but no p99.
        assert!(!tail_reportable(20, 99.0));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = Fingerprint::of(&vec![1.0f64, 2.0]);
        let b = Fingerprint::of(&vec![1.0f64, 2.0]);
        let c = Fingerprint::of(&vec![1.0f64, -0.0]);
        assert_eq!(a.hex(), b.hex());
        assert_ne!(a.hex(), c.hex());
        assert_eq!(a.bytes, format!("{:#?}", vec![1.0f64, 2.0]).len() as u64);
    }

    #[test]
    fn json_lists_metrics_in_order() {
        let mut m = Metrics::default();
        m.push("replay_s", 1.5, "s");
        m.push("setup_s", 0.25, "s");
        assert_eq!(
            m.to_json(),
            "{\"replay_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}"
        );
    }
}
