//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a self-test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("nodes_per_s", "1/s"),
    ("scenario_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Layers timed by spans around public calls. Each gets `.calls`,
/// `.busy_s`, `.self_s` and `.share` in the traced run.
pub const SPAN_LAYERS: [&str; 19] = [
    "bench",
    "gen",
    "files",
    "analysis.check",
    "analysis.preflight",
    "fleet",
    "runner",
    "report.render",
    "report.aggregate",
    "fleetd.bind",
    "fleetd.run",
    "cache.key",
    "cache.lookup",
    "cache.store",
    "wsn.build_soa",
    "wsn.routing",
    "wsn.analyze",
    "fleetd.encode",
    "fleetd.decode",
];

/// Per-layer counters that are not span totals: (name, unit).
pub const COUNTERS: [(&str, &str); 39] = [
    ("files.files", "count"),
    ("files.bytes", "B"),
    ("analysis.diagnostics", "count"),
    ("runner.idle_s", "s"),
    ("runner.utilization", "frac"),
    ("solve.markov.calls", "count"),
    ("solve.markov.busy_s", "s"),
    ("solve.erlang_phase.calls", "count"),
    ("solve.erlang_phase.busy_s", "s"),
    ("solve.petri.calls", "count"),
    ("solve.petri.busy_s", "s"),
    ("solve.des.calls", "count"),
    ("solve.des.busy_s", "s"),
    ("solve.mg1.calls", "count"),
    ("solve.mg1.busy_s", "s"),
    ("solve.petri.sim_s_per_host_s", "s/s"),
    ("solve.des.sim_s_per_host_s", "s/s"),
    ("network.busy_s", "s"),
    ("network.nodes", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "frac"),
    ("cache.bytes_read", "B"),
    ("cache.bytes_written", "B"),
    ("report.bytes", "B"),
    ("wsn.nodes", "count"),
    ("wsn.bytes_computed", "B"),
    ("fleetd.wait_s", "s"),
    ("fleetd.frames", "count"),
    ("fleetd.wire_bytes", "B"),
    ("fleetd.shards_remote", "count"),
    ("fleetd.reassigned", "count"),
    ("fleetd.rejected_frames", "count"),
    ("fleetd.duplicate_results", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.passes", "count"),
    ("trace.spans", "count"),
    ("trace.pass_wall_s", "s"),
    ("trace.self_sum_s", "s"),
];

/// Suffixes and units of the four metrics every span layer gets.
pub const SPAN_METRICS: [(&str, &str); 4] = [
    ("calls", "count"),
    ("busy_s", "s"),
    ("self_s", "s"),
    ("share", "frac"),
];

/// Every per-layer metric, in output order: (name, unit).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = SPAN_LAYERS
        .iter()
        .flat_map(|layer| {
            SPAN_METRICS
                .iter()
                .map(move |(suffix, unit)| (format!("{layer}.{suffix}"), *unit))
        })
        .collect();
    out.extend(COUNTERS.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric of `catalogue` (a missing value reads 0).
pub fn result_line(
    catalogue: &[(String, &'static str)],
    values: &BTreeMap<String, f64>,
    attempted: usize,
    failed: usize,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
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

/// Reset this process's `VmHWM` to its current resident set size (writes 5
/// to `/proc/self/clear_refs`), so a later [`peak_rss_mib`] is the peak
/// since this call. Does nothing where `/proc` is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
