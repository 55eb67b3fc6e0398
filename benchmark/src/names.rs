//! Every metric the benchmark prints, declared once.
//!
//! A run emits exactly the end-to-end list (`--trace 0`) or exactly the
//! per-layer list (`--trace 1`): [`Metrics::finish`] refuses a missing
//! or undeclared name, and a unit test holds these lists equal to the
//! ones in `BENCHMARK.json`, so the two cannot drift apart. Modeled
//! numbers (the `upmem-sim` cost model's clock) repeat exactly for a
//! fixed seed; host numbers are wall time of the simulator itself. The
//! clock is named in every metric: `modeled_*` / `*_ns_per_*` taken
//! from reports are modeled, `host_*`, `*_s` and replay timings are
//! host. A per-layer metric of a layer the workload does not exercise
//! is reported as 0.

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Regression rule; end-to-end metrics have one, per-layer metrics
    /// are reported without a bound.
    pub rule: Option<Rule>,
}

/// How an end-to-end metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Modeled metrics repeat exactly for a fixed seed, so two runs of
    /// the same code must agree to the last digit.
    pub exact_on_repeat: bool,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        rule: None,
    }
}

const fn e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    exact_on_repeat: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        rule: Some(Rule {
            higher_is_better,
            bound,
            exact_on_repeat,
        }),
    }
}

pub const END_TO_END: &[MetricDef] = &[
    e("setup_s", "s", false, 0.25, false),
    e("host_rel_speed", "ratio", true, 0.25, false),
    e("modeled_ns_per_sample", "ns", false, 0.06, true),
    e("modeled_speedup_vs_cpu", "ratio", true, 0.06, true),
    e("modeled_p50_us", "us", false, 0.08, true),
    e("modeled_p99_us", "us", false, 0.2, true),
    e("peak_rss_mb", "MB", false, 0.05, false),
];

pub const PER_LAYER: &[MetricDef] = &[
    // workloads
    m("workloads.generate_s", "s"),
    m("workloads.profile_s", "s"),
    m("workloads.lookups_per_sample", "count"),
    // cooccur-cache
    m("cooccur.mine_s", "s"),
    m("cooccur.lookup_ns_per_sample", "ns"),
    m("cooccur.hit_rate", "ratio"),
    m("cooccur.fetches_saved_share", "ratio"),
    // dlrm-model
    m("dlrm.sum_rows_ns_per_lookup", "ns"),
    m("dlrm.dequant_ns_per_lookup", "ns"),
    m("dlrm.dense_ns_per_sample", "ns"),
    // upmem-sim
    m("upmem.scatter_ns_per_kb", "ns"),
    m("upmem.gather_ns_per_kb", "ns"),
    m("upmem.launch_ns_per_dpu", "ns"),
    m("upmem.instrs_per_sample", "count"),
    m("upmem.dma_transfers_per_sample", "count"),
    m("upmem.mram_bytes_per_sample", "B"),
    m("upmem.stage1_bytes_per_sample", "B"),
    m("upmem.stage3_bytes_per_sample", "B"),
    m("upmem.tasklet_occupancy", "ratio"),
    m("upmem.host_ns_per_instr", "ns"),
    // updlrm-core
    m("core.engine_build_s", "s"),
    m("core.run_batch_ns_per_sample", "ns"),
    m("core.route_ns_per_sample", "ns"),
    m("core.stage1_ns_per_sample", "ns"),
    m("core.stage2_ns_per_sample", "ns"),
    m("core.stage3_ns_per_sample", "ns"),
    m("core.combine_ns_per_sample", "ns"),
    m("core.overlap_saved_share", "ratio"),
    m("core.load_imbalance", "ratio"),
    m("core.telemetry_overhead_pct", "%"),
    m("core.host_over_modeled", "ratio"),
    m("core.unattributed_share", "ratio"),
    m("core.replans", "count"),
    m("core.migrations", "count"),
    m("core.rows_moved", "count"),
    m("core.migrated_bytes", "B"),
    m("core.migration_ns_share", "ratio"),
    // scheduler
    m("sched.policy_ns_per_request", "ns"),
    m("sched.assemble_ns_per_request", "ns"),
    m("sched.mean_batch_fill", "ratio"),
    m("sched.deadline_trigger_share", "ratio"),
    m("sched.queue_high_water", "count"),
    m("sched.shed_share", "ratio"),
    m("sched.achieved_qps", "1/s"),
    m("sched.max_qps_in_slo", "1/s"),
    // runtime
    m("runtime.ring_hop_ns", "ns"),
    m("runtime.ring_xthread_ns", "ns"),
    m("runtime.overhead_share", "ratio"),
    m("runtime.service_over_modeled", "ratio"),
    m("runtime.wall_qps", "1/s"),
    m("runtime.wall_p50_us", "us"),
    m("runtime.wall_p99_us", "us"),
    // baselines
    m("baselines.cpu_modeled_ns_per_sample", "ns"),
    // the harness itself
    m("harness.host_samples_per_s", "1/s"),
    m("harness.host_samples_per_s_q1", "1/s"),
    m("harness.host_samples_per_s_q3", "1/s"),
    m("harness.ref_ns_per_lookup", "ns"),
    m("harness.pairs", "count"),
    m("harness.rel_speed_iqr_pct", "%"),
    m("harness.tracing_overhead_pct", "%"),
];

/// The metric values of one run, checked against a declared list.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.values.iter().all(|(n, _)| *n != name),
            "metric {name} set twice"
        );
        self.values.push((name, value));
    }

    /// Orders the values like `declared` and fails on any mismatch
    /// between what was set and what was declared, or a non-finite
    /// value: a run prints every declared metric and nothing else.
    pub fn finish(self, declared: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>, String> {
        for (name, _) in &self.values {
            if declared.iter().all(|d| d.name != *name) {
                return Err(format!("metric {name} was measured but never declared"));
            }
        }
        declared
            .iter()
            .map(|d| {
                let (_, v) = self
                    .values
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .ok_or_else(|| format!("metric {} was declared but not measured", d.name))?;
                if !v.is_finite() {
                    return Err(format!("metric {} is not finite ({v})", d.name));
                }
                Ok((*d, *v))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::SHAPES;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    /// The `"name": "..."` values inside top-level array `key` of the
    /// manifest, in order. The manifest is flat enough that scanning
    /// for the closing bracket of the array is exact.
    fn names_in(key: &str) -> Vec<String> {
        let start = MANIFEST
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &MANIFEST[start..];
        let body = &body[body.find('[').unwrap()..body.find(']').unwrap()];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find(':').unwrap() + 1..];
                let rest = &rest[rest.find('"').unwrap() + 1..];
                rest[..rest.find('"').unwrap()].to_string()
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_within_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&SHAPES.len()));
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(SHAPES.iter().map(|s| s.name))
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(well_formed(name), "{name}");
            assert!(!all[..i].contains(name), "{name} is used twice");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{} has unit {:?}",
                d.name,
                d.unit
            );
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert_eq!(END_TO_END[0].unit, "s");
    }

    /// Every run prints exactly its declared list (`Metrics::finish`),
    /// so holding the declared lists equal to the manifest's — in both
    /// directions, order included — holds the printed names equal too,
    /// for every workload.
    #[test]
    fn declared_lists_equal_the_manifest() {
        let declared = |list: &[MetricDef]| list.iter().map(|d| d.name.to_string()).collect();
        let e2e: Vec<String> = declared(END_TO_END);
        let layer: Vec<String> = declared(PER_LAYER);
        assert_eq!(names_in("end_to_end"), e2e);
        assert_eq!(names_in("per_layer"), layer);
        let shapes: Vec<String> = SHAPES.iter().map(|s| s.name.to_string()).collect();
        assert_eq!(names_in("workloads"), shapes);
    }

    #[test]
    fn manifest_units_directions_and_bounds_match() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let mut needle = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            if let Some(rule) = d.rule {
                let better = if rule.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert!(rule.bound > 0.0 && rule.bound <= 0.25, "{}", d.name);
                needle += &format!(", \"better\": \"{better}\", \"bound\": {}", rule.bound);
            }
            assert!(MANIFEST.contains(&needle), "manifest lacks {needle}");
        }
        // setup_s carries the largest bound, as the contract asks.
        let max = END_TO_END
            .iter()
            .map(|d| d.rule.unwrap().bound)
            .fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].rule.unwrap().bound, max);
    }

    #[test]
    fn finish_rejects_missing_extra_and_non_finite() {
        let list = &[m("a", "s"), m("b", "s")];
        let mut ok = Metrics::default();
        ok.set("b", 2.0);
        ok.set("a", 1.0);
        let out = ok.finish(list).unwrap();
        assert_eq!(out[0].0.name, "a");
        assert_eq!(out[1].1, 2.0);

        let mut missing = Metrics::default();
        missing.set("a", 1.0);
        assert!(missing.finish(list).unwrap_err().contains("not measured"));

        let mut extra = Metrics::default();
        extra.set("a", 1.0);
        extra.set("b", 1.0);
        extra.set("c", 1.0);
        assert!(extra.finish(list).unwrap_err().contains("never declared"));

        let mut nan = Metrics::default();
        nan.set("a", f64::NAN);
        nan.set("b", 1.0);
        assert!(nan.finish(list).unwrap_err().contains("not finite"));
    }
}
