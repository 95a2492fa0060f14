//! Self-tests of the benchmark at toy sizes: the metric catalogue matches
//! `BENCHMARK.json` and every metric is printed with its unit, traces are
//! well formed, and a corrupted output byte is counted as a failure.

#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use wsnem_perfbench::metrics::{self, END_TO_END};
use wsnem_perfbench::trace::{self, Tracer, PASS};
use wsnem_perfbench::workloads::{bench_for, Sizes, Workload};
use wsnem_perfbench::{run, Config, Outcome};

const TOY: Sizes = Sizes {
    fleet: 6,
    mega_nodes: 2000,
};

/// A scratch directory no other test of this process uses.
fn work_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "wsnem-perfbench-{tag}-{}-{seq}",
        std::process::id()
    ))
}

fn toy_run(workload: Workload, trace: bool) -> Outcome {
    let cfg = Config {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
        work_dir: work_dir(&format!("{}-{trace}", workload.name())),
        sizes: TOY,
    };
    let outcome = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(!cfg.work_dir.exists(), "the work directory is removed");
    outcome
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(|v| v.as_seq())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<(String, String)> = metrics::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
}

/// Check the result line of `outcome` lists exactly `catalogue`, with units.
fn assert_result_line(outcome: &Outcome, catalogue: &[(String, &'static str)], what: &str) {
    let line = metrics::result_line(
        catalogue,
        &outcome.values,
        outcome.attempted,
        outcome.failed,
    );
    let doc = serde_json::parse(&line).expect("the result line is JSON");
    assert_eq!(
        doc.get("correct").map(|v| format!("{v:?}")),
        Some("Bool(true)".into()),
        "{what}"
    );
    let emitted = doc
        .get("metrics")
        .and_then(|m| m.as_map())
        .expect("metrics object");
    assert_eq!(emitted.len(), catalogue.len(), "{what}");
    for ((name, unit), (got_name, got)) in catalogue.iter().zip(emitted) {
        assert_eq!(name, got_name, "{what}");
        assert_eq!(
            got.get("unit").and_then(|u| u.as_str()),
            Some(*unit),
            "{what}: {name}"
        );
        assert!(got.get("value").is_some(), "{what}: {name}");
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit_on_every_workload() {
    let e2e: Vec<(String, &'static str)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for w in Workload::ALL {
        let plain = toy_run(w, false);
        assert_eq!(plain.failed, 0, "{}: {:?}", w.name(), plain.notes);
        for (name, _) in &e2e {
            let v = plain.values[name];
            assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name());
        }
        assert_result_line(&plain, &e2e, w.name());

        let traced = toy_run(w, true);
        assert_eq!(traced.failed, 0, "{}: {:?}", w.name(), traced.notes);
        assert_result_line(&traced, &metrics::per_layer(), w.name());
        assert!(traced.values.contains_key("trace.overhead_frac"));
    }
}

#[test]
fn traced_spans_are_well_formed_and_self_times_sum_to_the_pass() {
    for w in Workload::ALL {
        let o = toy_run(w, true);
        let spans = o.tracer.spans();
        trace::check_well_formed(spans).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let wall = o.values["trace.pass_wall_s"];
        let sum = o.values["trace.self_sum_s"];
        assert!(wall > 0.0, "{}", w.name());
        assert!(
            (sum - wall).abs() <= 1e-9 * (1.0 + wall),
            "{}: {sum} vs {wall}",
            w.name()
        );
        // Spans nest: a child never starts before or ends after its parent.
        for s in spans {
            if let Some(p) = s.parent {
                assert!(spans[p].start <= s.start && s.end <= spans[p].end);
            }
        }
        let selfs = trace::self_times(spans);
        assert!(selfs.iter().all(|&x| x >= -1e-12), "{}", w.name());
        let (_, roots, _) = trace::layer_totals(spans, PASS);
        assert!(roots >= 1, "{}: no traced pass", w.name());
    }
}

#[test]
fn a_corrupted_output_byte_is_counted_as_a_failure() {
    let dir = work_dir("corrupt");
    let fleet = dir.join("fleet");
    std::fs::create_dir_all(&fleet).expect("fleet directory");
    let mut bench = bench_for(Workload::FleetCold, &dir, 5, TOY);
    let mut tracer = Tracer::new(false);
    bench.setup(&mut tracer, &fleet).expect("set-up");
    bench.after_setup().expect("after set-up");
    assert_eq!(bench.pass(&mut tracer).expect("pass").failed, 0);
    assert_eq!(bench.finish().expect("warm re-run"), 0);

    // Flip one digit of one stored report: the cache still answers, with a
    // report that no longer matches the run that stored it.
    let cache = fleet.join(wsnem_scenario::cache::DIR_NAME);
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&cache)
        .expect("the primed cache")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    entries.sort();
    let mut bytes = std::fs::read(&entries[0]).expect("read entry");
    let field = b"\"mean_power_mw\":";
    let at = bytes
        .windows(field.len())
        .position(|w| w == field)
        .expect("a mean_power_mw field")
        + field.len();
    assert!(bytes[at].is_ascii_digit());
    bytes[at] = if bytes[at] == b'9' {
        b'8'
    } else {
        bytes[at] + 1
    };
    std::fs::write(&entries[0], bytes).expect("write entry");

    let failed = bench.finish().expect("warm re-run");
    assert!(failed >= 1, "the corrupted byte went unnoticed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_mega_tree_depth_formula() {
    assert_eq!(wsnem_perfbench::workloads::tree4_depth(1), 1);
    assert_eq!(wsnem_perfbench::workloads::tree4_depth(5), 2);
    assert_eq!(wsnem_perfbench::workloads::tree4_depth(6), 3);
    assert_eq!(wsnem_perfbench::workloads::tree4_depth(1_000_000), 11);
}
