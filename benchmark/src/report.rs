//! Metric names, units and the result line.
//!
//! The two tables below are the single list of what the benchmark reports;
//! `BENCHMARK.json` repeats them (a test keeps the two in step).

use std::fmt::Write as _;

/// One end-to-end metric: what a later change is accepted or rejected on.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn gate(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

/// The six end-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: [EndToEnd; 6] = [
    gate("throughput_tps", "1/s", false, 0.12),
    gate("op_p50_us", "us", true, 0.25),
    gate("op_p90_us", "us", true, 0.25),
    gate("cpu_us_per_task", "us", true, 0.25),
    gate("peak_rss_mb", "MB", true, 0.15),
    gate("setup_s", "s", true, 0.25),
];

/// `(name, unit)` of the end-to-end metrics, the shape [`PER_LAYER`] has.
pub fn end_to_end_spec() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// `(name, unit)` of the per-layer metrics, emitted with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 65] = [
    // kernels -> throughput_tps, cpu_us_per_task on nbia_native
    ("kernels.tile_gen_ns_px", "ns/px"),
    ("kernels.pyramid_ns_px", "ns/px"),
    ("kernels.color_ns_px", "ns/px"),
    ("kernels.glcm_ns_px", "ns/px"),
    ("kernels.lbp_ns_px", "ns/px"),
    ("kernels.classify_ns", "ns"),
    ("kernels.train_us", "us"),
    ("apps.nbia_recalc_ratio", "ratio"),
    ("apps.nbia_tasks_per_tile", "count"),
    // local -> throughput_tps on native_fine
    ("local.overhead_ns_per_task", "ns"),
    ("local.body_ns", "ns"),
    ("local.spawn_join_us", "us"),
    ("local.gpu_share", "ratio"),
    // engine / queue / weights / policy -> native_fine, net_batch, des_cluster
    ("engine.seq_ns_per_task", "ns"),
    ("select.push_ns", "ns"),
    ("select.pop_ns", "ns"),
    ("queue.insert_ns", "ns"),
    ("queue.pop_best_ns", "ns"),
    ("weights.pair_ns", "ns"),
    ("weights.estimator_ns", "ns"),
    ("dqaa.observe_ns", "ns"),
    ("dbsa.push_request_ns", "ns"),
    ("estimator.knn_predict_ns", "ns"),
    ("estimator.online_observe_ns", "ns"),
    ("transfer.adaptive_ns_per_task", "ns"),
    ("admission.offer_release_ns", "ns"),
    // net -> net_batch throughput/cpu, net_stream latency
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("frame.deliver_bytes", "bytes"),
    ("conn.enqueue_flush_ns", "ns"),
    ("net.handshake_us", "us"),
    ("net.tx_frames_per_task", "count"),
    ("net.rx_frames_per_task", "count"),
    ("net.tx_bytes_per_task", "bytes"),
    ("net.rx_bytes_per_task", "bytes"),
    ("net.flushes_per_task", "count"),
    ("net.pool_miss_ratio", "ratio"),
    ("net.worker_cpu_us_per_task", "us"),
    ("net.coord_cpu_us_per_task", "us"),
    ("net.queue_p50_us", "us"),
    ("net.queue_p90_us", "us"),
    ("net.service_p50_us", "us"),
    ("net.e2e_p99_us", "us"),
    // sim -> throughput_tps on des_cluster
    ("sim.wall_ns_per_task", "ns"),
    ("sim.graph_wall_ns_per_task", "ns"),
    ("simkit.event_ns", "ns"),
    ("sim.makespan_virtual_ms", "ms"),
    ("sim.speedup_vs_cpu", "ratio"),
    ("sim.gpu_util_pct", "%"),
    // obs -> cpu_us_per_task wherever a recorder is on
    ("obs.record_ns", "ns"),
    ("obs.events_per_task", "count"),
    ("obs.trace_overhead_pct", "%"),
    // bench: diagnostics of the instrument itself, never gated
    ("bench.pinned", "count"),
    ("bench.host_factor_p50", "ratio"),
    ("bench.host_factor_iqr_pct", "%"),
    ("bench.blocks", "count"),
    ("bench.blocks_dropped_pct", "%"),
    ("bench.blocks_quiet_pct", "%"),
    ("bench.raw_throughput_tps", "1/s"),
    ("bench.raw_op_p50_us", "us"),
    ("bench.raw_cpu_us_per_task", "us"),
    ("bench.allocs_per_task", "count"),
    ("bench.alloc_bytes_per_task", "bytes"),
    ("bench.budget_closure_pct", "%"),
    ("bench.probe_ns", "ns"),
];

/// Metrics gathered by one run, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The outcome of a run: correctness, operation counts and metrics.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted: jobs (batch workloads) or tasks (`net_stream`).
    pub attempted: u64,
    /// Operations whose output failed verification, or that never finished.
    pub failed: u64,
    /// First few verification failures, for stderr.
    pub complaints: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    /// The result line: one JSON object carrying exactly the metrics of
    /// `spec`, each with its unit. Errors if the run did not measure one.
    pub fn to_json_line(&self, spec: &[(&str, &str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in spec.iter().enumerate() {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }

    /// A readable table of the same metrics, for stderr.
    pub fn to_table(&self, spec: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in spec {
            if let Some(v) = self.metrics.get(name) {
                writeln!(out, "  {name:<34} {v:>16.4} {unit}").expect("String write");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anthill::obs::json;

    fn result(failed: u64) -> RunResult {
        let mut metrics = Metrics::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            metrics.put(m.name, 1.5 + i as f64);
        }
        RunResult {
            attempted: 1000,
            failed,
            complaints: Vec::new(),
            metrics,
        }
    }

    #[test]
    fn result_line_parses_and_carries_all_six_metrics() {
        let line = result(0).to_json_line(&end_to_end_spec()).unwrap();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(1000));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
        let json::Value::Obj(top) = &doc else {
            panic!("not an object")
        };
        assert_eq!(top.len(), 4, "exactly correct, attempted, failed, metrics");
        let json::Value::Obj(metrics) = doc.get("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), 6);
        for (i, gate) in END_TO_END.iter().enumerate() {
            let m = doc.get("metrics").unwrap().get(gate.name).unwrap();
            assert_eq!(
                m.get("value").and_then(|v| v.as_f64()),
                Some(1.5 + i as f64)
            );
            assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some(gate.unit));
        }
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let doc = json::parse(&result(3).to_json_line(&end_to_end_spec()).unwrap()).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(3));
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error_not_a_zero() {
        assert!(result(0).to_json_line(&PER_LAYER).is_err());
        let mut r = result(0);
        r.metrics.0[0].1 = f64::NAN;
        assert!(r.to_json_line(&end_to_end_spec()).is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the binary emits. They must name the same metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&end_to_end_spec()));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        for (listed, gate) in doc
            .get("end_to_end")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            let better = if gate.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(listed.get("better").and_then(|v| v.as_str()), Some(better));
            assert_eq!(
                listed.get("bound").and_then(|v| v.as_f64()),
                Some(gate.bound)
            );
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
