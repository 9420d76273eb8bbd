//! Metric registry and the result line.
//!
//! With `--trace 0` the result carries every end-to-end metric, with
//! `--trace 1` every per-layer metric. A per-layer metric the workload
//! does not exercise reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit). Host times are in reference-host
/// units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("energy_vs_baseline", "ratio"),
    ("cycles_vs_baseline", "ratio"),
    ("code_bytes_vs_baseline", "ratio"),
];

/// Per-layer metrics of the traced run: (name, unit). `_ms` metrics are
/// the mean reference-host time of one call of the named public call
/// (pass walls: per traced build).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.front_ms", "ms"),
    ("opt.expand_ms", "ms"),
    ("interp.profile_ms", "ms"),
    ("core.build_ms", "ms"),
    ("sim.eval_ms", "ms"),
    ("opt.squeeze_ms", "ms"),
    ("sir.bitlint_ms", "ms"),
    ("sir.verify_ms", "ms"),
    ("backend.isel_ms", "ms"),
    ("backend.regalloc_ms", "ms"),
    ("backend.emit_ms", "ms"),
    ("backend.verify_ms", "ms"),
    ("core.gate_sim_ms", "ms"),
    ("wire.encode_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.puts", "count"),
    ("store.put_bytes", "bytes"),
    ("sim.turbo_ms", "ms"),
    ("sim.dts_ms", "ms"),
    ("sim.batch_ms", "ms"),
    ("sim.turbo_ns_per_inst", "ns/inst"),
    ("sim.dts_ns_per_inst", "ns/inst"),
    ("sim.batch_ns_per_inst", "ns/inst"),
    ("serve.parse_ms", "ms"),
    ("serve.batch_ms", "ms"),
    ("store.get_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("core.stage_hit_ratio", "ratio"),
    ("core.fn_hit_ratio", "ratio"),
    ("core.gate_kept_ratio", "ratio"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.disk_hits", "count"),
    ("serve.memory_hits", "count"),
    ("serve.computed", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("opt.expand_insts", "count"),
    ("interp.profile_dyn_insts", "count"),
    ("sim.dyn_insts", "count"),
    ("sim.misspecs", "count"),
    ("host.probe_ms", "ms"),
    ("host.wall_ops_per_s", "ops/s"),
    ("host.wall_op_p50_ms", "ms"),
    ("host.wall_op_p90_ms", "ms"),
    ("host.wall_setup_s", "s"),
    ("host.trace_overhead", "ratio"),
    ("ops", "count"),
];

/// Unscaled host-time counterparts of the scaled end-to-end metrics,
/// printed on every run for the steadiness report.
const UNSCALED: &[(&str, &str)] = &[
    ("ops_per_s", "host.wall_ops_per_s"),
    ("op_p50_ms", "host.wall_op_p50_ms"),
    ("op_p90_ms", "host.wall_op_p90_ms"),
    ("setup_s", "host.wall_setup_s"),
];

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unregistered metric `{name}`"))
}

/// One workload's result.
pub struct Report {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            correct: false,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Sets metric `name`, which must be registered.
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.values.insert(name, value);
    }

    /// Adds a human-readable line, printed before the result line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn json_metrics(&self, names: &[(&'static str, &'static str)]) -> String {
        let body: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Prints the notes, a metric table, the `unscaled` line and, last,
    /// the result line: end-to-end metrics, or per-layer ones when
    /// `trace`.
    pub fn print(&self, trace: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        let names = if trace { PER_LAYER } else { END_TO_END };
        for (name, unit) in names {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            println!("  {name:<28} {v:>16.6} {unit}");
        }
        let pairs: Vec<String> = UNSCALED
            .iter()
            .map(|(scaled, raw)| {
                let v = self.values.get(raw).copied().unwrap_or(0.0);
                format!("\"{scaled}\": {v}")
            })
            .collect();
        println!("unscaled {{{}}}", pairs.join(", "));
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.json_metrics(names)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(seen.insert(*name), "metric `{name}` listed twice");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{unit}`"
            );
        }
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name("sim.turbo_ns_per_inst"));
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "BENCHMARK.json lacks `{name}` in `{unit}`"
            );
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::new("w");
        r.set("ops_per_s", 12.5);
        r.set("op_p50_ms", f64::NAN);
        let m = r.json_metrics(END_TO_END);
        assert!(m.starts_with('{') && m.ends_with('}'));
        assert!(m.contains("\"ops_per_s\": {\"value\": 12.5, \"unit\": \"ops/s\"}"));
        assert!(m.contains("\"op_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
    }
}
