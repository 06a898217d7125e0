//! The metric names and units the benchmark reports; `BENCHMARK.json`
//! and `METRICS.md` list the same names (a test keeps them in step).

/// End-to-end metrics, reported by the untraced run of every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, reported by the traced run of every workload
/// (0 where the workload does not exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    // The headline figures of each workload family.
    ("error_ratio", "ratio"),
    ("study_runs_per_s", "1/s"),
    ("transport_mhps", "Mh/s"),
    ("transport_mhps_serial", "Mh/s"),
    ("fleet_p50_ms", "ms"),
    ("fleet_p99_ms", "ms"),
    ("fleet_max_rps", "1/s"),
    ("fleet.closed_loop_rps", "1/s"),
    ("fleet.nominal_samples", "count"),
    ("latency.p50_ms", "ms"),
    ("latency.tail_ms", "ms"),
    ("latency.tail_level", "ratio"),
    ("latency.samples", "count"),
    // fault_injection
    ("fault_injection.busy_s", "s"),
    ("fault_injection.injections_per_s", "1/s"),
    ("fault_injection.mxm_s", "s"),
    ("fault_injection.lud_s", "s"),
    ("fault_injection.lavamd_s", "s"),
    ("fault_injection.hotspot_s", "s"),
    ("fault_injection.sc_s", "s"),
    ("fault_injection.ced_s", "s"),
    ("fault_injection.bfs_s", "s"),
    ("fault_injection.yolo_s", "s"),
    ("fault_injection.mnist_s", "s"),
    // beamline
    ("beamline.campaign_busy_s", "s"),
    ("beamline.campaigns", "count"),
    ("beamline.stage_wall_s", "s"),
    ("beamline.straggler_ratio", "ratio"),
    // core, scenario
    ("core.report_s", "s"),
    ("scenario.run_s", "s"),
    ("scenario.virtual_hours_per_s", "1/s"),
    // transport
    ("transport.thermal_field.mhps", "Mh/s"),
    ("transport.thermal_field.mhps.serial", "Mh/s"),
    ("transport.moderation.mhps", "Mh/s"),
    ("transport.moderation.mhps.serial", "Mh/s"),
    ("transport.shield.mhps", "Mh/s"),
    ("transport.shield.mhps.serial", "Mh/s"),
    ("transport.weighted.mhps", "Mh/s"),
    ("transport.weighted.mhps.serial", "Mh/s"),
    ("transport.scaling_eff", "ratio"),
    ("transport.setup_ms", "ms"),
    ("transport.histories", "count"),
    ("transport.busy_s", "s"),
    // fleet
    ("fleet.surface_build_s", "s"),
    ("fleet.entry_parse_us_p50", "us"),
    ("fleet.entry_parse_us_p99", "us"),
    ("fleet.entry_parse_us_samples", "count"),
    ("fleet.assess_us_p50", "us"),
    ("fleet.assess_us_p99", "us"),
    ("fleet.assess_us_samples", "count"),
    ("fleet.assess_mc_ms_p50", "ms"),
    ("fleet.assess_mc_ms_p99", "ms"),
    ("fleet.assess_mc_ms_samples", "count"),
    ("fleet.surface_hits", "count"),
    ("fleet.mc_fallbacks", "count"),
    // json
    ("json.parse_us_p50", "us"),
    ("json.parse_us_p99", "us"),
    ("json.parse_us_samples", "count"),
    ("json.canonical_us_p50", "us"),
    ("json.canonical_us_p99", "us"),
    ("json.canonical_us_samples", "count"),
    // http
    ("http.parse_us_p50", "us"),
    ("http.parse_us_p99", "us"),
    ("http.parse_us_samples", "count"),
    ("http.serialize_us_p50", "us"),
    ("http.serialize_us_p99", "us"),
    ("http.serialize_us_samples", "count"),
    // cache
    ("cache.hit_ratio", "ratio"),
    ("cache.coalesced", "count"),
    ("cache.get_us_p50", "us"),
    ("cache.get_us_p99", "us"),
    ("cache.get_us_samples", "count"),
    ("cache.insert_us_p50", "us"),
    ("cache.insert_us_p99", "us"),
    ("cache.insert_us_samples", "count"),
    // router, server
    ("router.handle_us_p50", "us"),
    ("router.handle_us_p99", "us"),
    ("router.handle_us_samples", "count"),
    ("server.outside_handler_us", "us"),
    ("server.cpu_us_per_req", "us"),
    ("server.overload_503", "count"),
    ("server.cap_closes", "count"),
    // client (the benchmark's own load generator)
    ("client.sent", "count"),
    ("client.failed.status", "count"),
    ("client.failed.io", "count"),
    ("client.failed.timeout", "count"),
    ("client.failed.closed_unanswered", "count"),
    ("client.retries", "count"),
    ("client.lateness_ms_p99", "ms"),
    ("client.cpu_us_per_req", "us"),
    // tracing
    ("trace.overhead_ratio", "ratio"),
];

/// Renders the result line: the metrics of this run's kind (end-to-end
/// untraced, per-layer traced), each from `values` or 0 when the
/// workload did not measure it.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    trace: bool,
    values: &crate::Metrics,
) -> String {
    let list: &[(&str, &str)] = if trace { PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let value = values.get(*name).map_or(0.0, |(v, _)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = tn_core::json::parse(&benchmark_json()).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let get = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn every_metric_is_documented() {
        let doc = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("METRICS.md"),
        )
        .expect("METRICS.md");
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                doc.contains(&format!("`{name}`")),
                "{name} missing from METRICS.md"
            );
        }
    }

    #[test]
    fn result_line_has_every_metric_of_its_kind() {
        let mut values = crate::Metrics::new();
        values.insert("setup_s".into(), (0.8127, "s"));
        let line = result_json(true, 10, 0, false, &values);
        let doc = tn_core::json::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.8127)
        );
        for (name, _) in END_TO_END {
            assert!(metrics.get(name).is_some(), "{name}");
        }
        assert!(metrics.get("client.sent").is_none());
    }
}
