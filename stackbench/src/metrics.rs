//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]` only.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics printed with tracing off (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("timesteps_per_s", "1/s"),
    m("latency_p50_us.low", "us"),
    m("latency_p99_us.low", "us"),
    m("latency_p50_us.high", "us"),
    m("latency_p99_us.high", "us"),
    m("max_rate_rps", "1/s"),
];

/// Metrics printed by the traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("wire.rtt_us.p50", "us"),
    m("wire.rtt_us.p99", "us"),
    m("wire.self_us.p50", "us"),
    m("wire.bytes_per_req", "B"),
    m("wire.frames_read", "count"),
    m("wire.frames_written", "count"),
    m("wire.crc_rejected", "count"),
    m("wire.deadline_closes", "count"),
    m("wire.connections_shed", "count"),
    m("wire.client_retries", "count"),
    m("wire.client_connects", "count"),
    m("serve.latency_us.p50", "us"),
    m("serve.latency_us.p99", "us"),
    m("serve.queue_wait_us.p50", "us"),
    m("serve.batches", "count"),
    m("serve.batch_fill_mean", "lanes"),
    m("serve.queue_depth_max", "count"),
    m("serve.shed", "count"),
    m("serve.session_busy", "count"),
    m("serve.batcher.load_us", "us"),
    m("serve.batcher.forward_us", "us"),
    m("serve.batcher.forward_resident_us", "us"),
    m("serve.batcher.import_us", "us"),
    m("serve.batcher.export_us", "us"),
    m("serve.batcher.allocs_per_forward", "count"),
    m("serve.session.open_us", "us"),
    m("serve.session.open", "count"),
    m("serve.session.evicted", "count"),
    m("serve.registry.redeploy_ms", "ms"),
    m("serve.registry.swap_us", "us"),
    m("serve.registry.swaps", "count"),
    m("infer.forward_us", "us"),
    m("infer.chunk_us", "us"),
    m("infer.batch_us", "us"),
    m("infer.timesteps_per_s", "1/s"),
    m("infer.perturb_us", "us"),
    m("infer.flops_per_timestep", "flop"),
    m("infer.bytes_per_timestep", "B"),
    m("infer.allocs_per_forward", "count"),
    m("infer.guard.cost_us", "us"),
    m("infer.guard.repaired", "count"),
    m("infer.guard.degraded", "count"),
    m("infer.guard.faulted", "count"),
    m("runner.wall_ms", "ms"),
    m("runner.busy_ms", "ms"),
    m("runner.busy_frac", "ratio"),
    m("core.eval.freeze_ms", "ms"),
    m("augment.perturb_ms", "ms"),
    m("core.train.epoch_ms", "ms"),
    m("core.train.outside_epoch_ms", "ms"),
    m("core.train.allocs_per_step", "count"),
    m("core.train.skipped_steps", "count"),
    m("core.train.clipped_steps", "count"),
    m("tensor.pool.hit_ratio", "ratio"),
    m("gen.late_us.p99", "us"),
    m("gen.late_count", "count"),
    m("trace.overhead_pct", "%"),
    m("trace.spans", "count"),
];

/// Whether `name` is a legal metric or workload name: starts with a letter
/// or digit, at most 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Every value one run measured, by metric name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` under `name`, which must be a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: a typo must not silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("undeclared metric `{name}`"));
        self.values.insert(def.name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `"metrics"` object for `defs`, or the names that are missing or
    /// not finite.
    pub fn metrics_json(&self, defs: &[MetricDef]) -> Result<String, Vec<&'static str>> {
        let bad: Vec<&'static str> = defs
            .iter()
            .filter(|d| !self.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect();
        if !bad.is_empty() {
            return Err(bad);
        }
        let body: Vec<String> = defs
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, self.values[d.name], d.unit
                )
            })
            .collect();
        Ok(format!("{{{}}}", body.join(", ")))
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
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
    fn every_name_is_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "illegal metric name `{name}`");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w.name));
        }
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("latency_p99_us.high"));
        assert!(valid_name("0k"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_manifest_declares_exactly_these_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        let declared = manifest.matches("\"name\":").count();
        let gated = crate::WORKLOADS.iter().filter(|w| w.gated).count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + gated);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert_eq!(manifest.contains(&entry), w.gated, "{entry}");
        }
    }

    #[test]
    fn missing_or_nonfinite_metrics_are_reported() {
        let mut r = Report::default();
        r.set("setup_s", 0.5);
        r.set("peak_rss_mb", f64::NAN);
        let err = r.metrics_json(&END_TO_END[..2]).unwrap_err();
        assert_eq!(err, vec!["peak_rss_mb"]);
        r.set("peak_rss_mb", 12.25);
        let ok = r.metrics_json(&END_TO_END[..2]).unwrap();
        assert_eq!(
            ok,
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 12.25, \"unit\": \"MB\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_metric_panics() {
        Report::default().set("latency_p99", 1.0);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
