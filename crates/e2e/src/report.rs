//! Metric and workload names, and the two output formats: one
//! human-readable `name value unit` line per metric, then — as the last
//! line of standard output — the JSON object the driver reads.

/// The four workloads, one per rung of the staircase.
pub const WORKLOADS: [&str; 4] = ["lib_batch", "serve_open", "wire_closed", "train"];

/// End-to-end metrics `(name, unit)`, reported for every workload from
/// the untraced run. `throughput` and `latency_p50_us` are not among
/// them: they did not repeat within a tenth on the reference host and
/// are the per-layer diagnostics `client.throughput` and
/// `client.latency_p50_us` (see the README's spread table).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("slo_met_share", "share"),
    ("mre_plan", "ratio"),
    ("mre_op", "ratio"),
    ("mre_hybrid", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported from the traced run, in the
/// order request and training data flow through the layers.
pub const PER_LAYER: [(&str, &str); 70] = [
    // Collection / set-up.
    ("tpch.generate_us_per_query", "us"),
    ("engine.plan_us_per_query", "us"),
    ("engine.simulate_us_per_query", "us"),
    ("core.dataset.execute_us_per_query", "us"),
    ("core.dataset.par_speedup", "ratio"),
    // Training.
    ("core.features.assemble_us_per_query", "us"),
    ("ml.gram.build_ms", "ms"),
    ("ml.gram.cache_hit_share", "share"),
    ("ml.svr.fit_ms", "ms"),
    ("ml.cv.cv5_ms", "ms"),
    ("core.plan_model.train_ms", "ms"),
    ("core.op_model.train_ms", "ms"),
    ("core.hybrid.train_ms", "ms"),
    ("core.hybrid.iterations", "count"),
    ("core.predictor.train_ms", "ms"),
    ("core.predictor.train_par_speedup", "ratio"),
    ("core.registry.create_ms", "ms"),
    ("core.registry.promote_ms", "ms"),
    ("core.registry.encode_snapshot_ms", "ms"),
    ("core.registry.decode_snapshot_ms", "ms"),
    ("core.registry.snapshot_bytes", "bytes"),
    // Inference.
    ("core.features.featurize_ns_per_query", "ns"),
    ("ml.compiled.ns_per_row", "ns"),
    ("ml.compiled.single_ns_per_row", "ns"),
    ("ml.compiled.support_vectors", "count"),
    ("core.plan_model.ns_per_query", "ns"),
    ("core.op_model.ns_per_query", "ns"),
    ("core.hybrid.ns_per_query", "ns"),
    ("core.hybrid.cached_ns_per_query", "ns"),
    ("core.pred_cache.hit_share", "share"),
    ("core.pred_cache.evictions", "count"),
    ("core.pred_cache.entries", "count"),
    ("core.predictor.checked_ns_per_query", "ns"),
    ("core.predictor.guard_self_ns", "ns"),
    ("core.predictor.degraded_share", "share"),
    // In-process serving.
    ("serve.tenant.submit_ns", "ns"),
    ("serve.tenant.predict_us_p50", "us"),
    ("serve.tenant.handoff_self_us", "us"),
    ("serve.server.predict_us_p50", "us"),
    ("serve.admission.admit_ns", "ns"),
    ("serve.tenant.wfq_pops_per_s", "1/s"),
    ("serve.stats.mean_batch", "count"),
    ("serve.stats.largest_batch", "count"),
    ("serve.stats.shed", "count"),
    ("serve.stats.deadline_missed", "count"),
    ("serve.stats.degraded", "count"),
    // Wire.
    ("serve.codec.encode_request_ns", "ns"),
    ("serve.codec.decode_request_ns", "ns"),
    ("serve.codec.encode_response_ns", "ns"),
    ("serve.codec.decode_response_ns", "ns"),
    ("serve.codec.request_bytes_mean", "bytes"),
    ("serve.codec.response_bytes", "bytes"),
    ("serve.net.connect_us", "us"),
    ("serve.net.roundtrip_us_p50", "us"),
    ("serve.net.self_us", "us"),
    ("serve.net.accepted", "count"),
    ("serve.net.served", "count"),
    ("serve.net.aborted", "count"),
    ("serve.net.malformed_frames", "count"),
    // Load generator and the trace itself (diagnostics).
    ("client.throughput", "1/s"),
    ("client.latency_p50_us", "us"),
    ("client.latency_p90_us", "us"),
    ("client.latency_p99_us", "us"),
    ("client.latency_max_us", "us"),
    ("client.gen_late_p99_us", "us"),
    ("client.round_cv", "ratio"),
    ("client.stolen_cpu_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.wire_sum_over_untraced", "ratio"),
    ("trace.spans", "count"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Pairs `values` with the end-to-end names and units.
pub fn end_to_end(values: [f64; 6]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Puts traced-run readings into [`PER_LAYER`] order; `Err` names what is
/// missing, duplicated or carries the wrong unit.
pub fn per_layer(mut readings: Vec<Metric>) -> Result<Vec<Metric>, String> {
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit) in &PER_LAYER {
        let at = readings
            .iter()
            .position(|m| m.name == name)
            .ok_or(format!("per-layer metric {name} was not measured"))?;
        let reading = readings.swap_remove(at);
        if reading.unit != unit {
            return Err(format!("{name} is in {}, expected {unit}", reading.unit));
        }
        ordered.push(reading);
    }
    match readings.first() {
        Some(extra) => Err(format!(
            "unlisted or duplicate per-layer metric {}",
            extra.name
        )),
        None => Ok(ordered),
    }
}

/// A JSON number: every digit of a finite value, `null` otherwise.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// The driver's result line:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{"name":{"value":…,"unit":…},…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Prints `workload/name value unit` for every metric.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload}/{} {} {}", m.name, json_number(m.value), m.unit);
    }
}
