//! The metric registry and the result printer.
//!
//! Every metric a run can emit is named here, with its unit. A run prints
//! one human line per metric (value, unit, sample count, what it is) and
//! then, as its last line, the JSON result: the end-to-end metrics when
//! untraced, the per-layer metrics when traced.

/// End-to-end metrics, reported by every workload (see WORKLOADS.md for
/// what each one means on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Census cells: one pattern on one graph, planned and counted.
pub const CENSUS_CELLS: &[&str] = &["ba500k.triangle", "lj.P1", "lj.P4", "lj.P6", "lj.P7"];
/// serve_mixed's patterns on the lj-sim graph.
pub const MIXED_CELLS: &[&str] = &["lj.triangle", "lj.P2", "lj.P3", "lj.P6", "lj.P7"];
/// serve_churn's read patterns on the BA-50k graph.
pub const CHURN_CELLS: &[&str] = &["ba50k.triangle", "ba50k.P2"];

/// Per-layer metrics without a cell suffix.
const LAYER: &[(&str, &str)] = &[
    ("graph.open_ms", "ms"),
    ("graph.stats_ms", "ms"),
    ("graph.delta_apply_ms", "ms"),
    ("graph.merge_ms", "ms"),
    ("graph.merge_bytes", "bytes"),
    ("core.delta_ms", "ms"),
    ("parallel.steals", "count"),
    ("parallel.donations", "count"),
    ("parallel.tasks", "count"),
    ("parallel.parked_frac", "fraction"),
    ("serve.transport_ms", "ms"),
    ("serve.handle_self_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.batch_frac", "fraction"),
    ("serve.batch_mean", "count"),
    ("serve.plan_hit_rate", "fraction"),
    ("serve.shared_aux_hit_rate", "fraction"),
    ("serve.shared_aux_stores_per_query", "count"),
    ("serve.update_server_ms", "ms"),
    ("floor.triangle_s", "s"),
    ("floor.ratio", "ratio"),
    ("load.late_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// Per-cell engine metrics, for every cell of every workload.
const PER_CELL: &[(&str, &str)] = &[
    ("order.plan_ms", "ms"),
    ("core.enum_ms", "ms"),
    ("core.bindings", "count"),
    ("core.intersections", "count"),
    ("core.peak_candidate_bytes", "bytes"),
];

/// Per-cell kernel metrics, for the census cells.
const PER_CENSUS_CELL: &[(&str, &str)] = &[
    ("setops.elements_scanned", "count"),
    ("setops.galloping_share", "fraction"),
    ("setops.ns_per_element", "ns"),
    ("setops.bytes_computed", "bytes"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    let mut cells: Vec<&str> = Vec::new();
    for &cell in CENSUS_CELLS.iter().chain(MIXED_CELLS).chain(CHURN_CELLS) {
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    for cell in cells {
        for &(m, u) in PER_CELL {
            all.push((format!("{m}.{cell}"), u));
        }
    }
    for cell in CENSUS_CELLS {
        for &(m, u) in PER_CENSUS_CELL {
            all.push((format!("{m}.{cell}"), u));
        }
    }
    all
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

struct Line {
    name: String,
    value: f64,
    unit: &'static str,
    n: usize,
    note: String,
}

/// Collected results of one run.
#[derive(Default)]
pub struct Report {
    lines: Vec<Line>,
    /// Operations attempted (census cells, queries, updates).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    mismatches: Vec<String>,
    mismatch_count: usize,
}

impl Report {
    /// Set a registered metric. `n` is its sample count.
    ///
    /// # Panics
    /// On a name missing from the registry: a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64, n: usize, note: impl Into<String>) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not registered"));
        self.push(name, value, unit, n, note.into());
    }

    /// A line for the human-readable part only (not in the JSON result).
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, n: usize, note: &str) {
        self.push(name, value, unit, n, note.to_string());
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, n: usize, note: String) {
        // `+ 0.0` turns -0.0 (an empty f64 sum) into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.lines.retain(|l| l.name != name);
        self.lines.push(Line {
            name: name.to_string(),
            value,
            unit,
            n,
            note,
        });
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.lines.iter().find(|l| l.name == name).map(|l| l.value)
    }

    /// Record a wrong answer. The run then reports `"correct": false`.
    pub fn mismatch(&mut self, what: String) {
        self.mismatch_count += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    /// Check `got == want`, recording a mismatch described by `what`.
    pub fn expect(&mut self, got: u64, want: u64, what: impl FnOnce() -> String) {
        if got != want {
            self.mismatch(format!("{}: got {got}, want {want}", what()));
        }
    }

    /// Whether every checked answer was right.
    pub fn correct(&self) -> bool {
        self.mismatch_count == 0
    }

    /// Print the human-readable lines, then the JSON result as the last
    /// line: the end-to-end metrics untraced, the per-layer ones traced.
    /// Per-layer metrics a workload does not exercise read 0.
    pub fn print(&self, traced: bool) {
        for m in &self.mismatches {
            println!("MISMATCH {m}");
        }
        if self.mismatch_count > self.mismatches.len() {
            println!(
                "MISMATCH ... and {} more",
                self.mismatch_count - self.mismatches.len()
            );
        }
        for l in &self.lines {
            println!(
                "metric {:<44} {:>16.6} {:<8} n={:<6} {}",
                l.name, l.value, l.unit, l.n, l.note
            );
        }
        let wanted: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let metrics: Vec<String> = wanted
            .iter()
            .map(|(n, u)| {
                let v = self.value(n).unwrap_or(0.0);
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }

    /// Names of end-to-end metrics this run failed to set (a bug).
    pub fn missing_end_to_end(&self) -> Vec<&'static str> {
        END_TO_END
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| self.value(n).is_none())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_fits_the_benchmark_limits() {
        let all = per_layer();
        assert!(all.len() <= 128, "{} per-layer metrics", all.len());
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|&(n, _)| n));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names must be unique");
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let text = std::fs::read_to_string("../BENCHMARK.json")
            .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
        {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + per_layer().len());
    }
}
