//! The three workloads. Each composes the public calls that `wsnem gen`,
//! `check`, `run`, `serve` and `worker` make; none reaches into the
//! program.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use wsnem_analysis::{check_scenario, resolve, CheckOptions, LintConfig, Severity};
use wsnem_core::{BackendId, EvalOptions};
use wsnem_fleetd::protocol::{decode_payload, encode_message};
use wsnem_fleetd::{run_worker, Coordinator, DistStats, Message, ServeOptions, WorkerOptions};
use wsnem_scenario::{
    builtin, files, fleet, gen, BatchMetrics, BatchProgress, CacheMode, CacheStats, FieldSpec,
    FileFormat, FleetRunOptions, GenField, GenMethod, GenSpec, ResultCache, Scenario,
    ScenarioError, ScenarioReport,
};

use crate::stats::{digest, strip_columns, timing_column_indices};
use crate::trace::Tracer;

/// Per-layer counters gathered by a pass or a probe, keyed by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

fn add(c: &mut Counters, key: &'static str, v: f64) {
    *c.entry(key).or_default() += v;
}

/// Worker threads of the fleet runs.
pub const FLEET_THREADS: usize = 2;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A fresh LHS fleet: load, full check, run into an empty cache, render.
    FleetCold,
    /// One 10^6-node template scenario on the analytic fast path.
    MegaTree,
    /// A fleet served over loopback TCP to one in-process worker.
    FleetDist,
}

impl Workload {
    /// Every workload, in the order of `BENCHMARK.json`.
    pub const ALL: [Workload; 3] = [Workload::FleetCold, Workload::MegaTree, Workload::FleetDist];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetCold => "fleet_cold",
            Workload::MegaTree => "mega_tree",
            Workload::FleetDist => "fleet_dist",
        }
    }

    /// Parse a `--workload` spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. The defaults are the benchmark's; the self-tests use toy
/// sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Scenarios per generated fleet.
    pub fleet: usize,
    /// Nodes in the `mega_tree` template network.
    pub mega_nodes: u32,
}

impl Default for Sizes {
    fn default() -> Self {
        Sizes {
            fleet: 1024,
            mega_nodes: 1_000_000,
        }
    }
}

/// What one pass produced, after its outputs were checked.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Wall time of the pass, checks excluded (s).
    pub wall: f64,
    /// Scenarios attempted.
    pub scenarios: usize,
    /// Network nodes reported.
    pub nodes: u64,
    /// Per-scenario latency samples (s).
    pub samples: Vec<f64>,
    /// Scenarios that failed or whose output failed a check, plus one per
    /// failed pass-level check.
    pub failed: usize,
    /// Per-layer counters (filled in fully on traced passes).
    pub counters: Counters,
}

/// One workload's state across set-up, passes and probes.
pub trait Bench {
    /// One set-up repetition, writing its inputs into `dir`, a fresh empty
    /// directory. The passes run on the last repetition's inputs.
    fn setup(&mut self, t: &mut Tracer, dir: &Path) -> Result<(), String>;
    /// Untimed work after the last set-up: reference outputs.
    fn after_setup(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// One measured pass, its outputs checked.
    fn pass(&mut self, t: &mut Tracer) -> Result<PassResult, String>;
    /// Re-call, one layer at a time, the public functions a pass reaches
    /// only inside another call.
    fn probe(&mut self, t: &mut Tracer, c: &mut Counters) -> Result<(), String>;
    /// Untimed checks after the measured passes; returns the failure count.
    fn finish(&mut self) -> Result<usize, String> {
        Ok(0)
    }
    /// Human-readable facts about the outputs, printed before the result.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Build the state of `workload`, keeping its scratch files under `root`.
pub fn bench_for(workload: Workload, root: &Path, seed: u64, sizes: Sizes) -> Box<dyn Bench> {
    match workload {
        Workload::MegaTree => Box::new(MegaBench::new(seed, sizes.mega_nodes)),
        w => Box::new(FleetBench::new(w, root, seed, sizes.fleet)),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn field(field: GenField, min: f64, max: f64) -> FieldSpec {
    FieldSpec {
        field,
        min,
        max,
        points: None,
    }
}

/// The generator call of `wsnem gen --method lhs` for a fleet workload.
fn fleet_spec(workload: Workload, seed: u64, count: usize) -> Result<(Scenario, GenSpec), String> {
    let (base, fields) = match workload {
        Workload::FleetDist => (
            "mac-heterogeneous-tree",
            vec![
                field(GenField::ServiceMean, 0.02, 0.08),
                field(GenField::RadioCheckInterval, 0.02, 1.0),
                field(GenField::NodeCount, 8.0, 16.0),
            ],
        ),
        _ => (
            "chain-3hop",
            vec![
                field(GenField::Lambda, 0.1, 0.6),
                field(GenField::ServiceMean, 0.05, 0.4),
                field(GenField::RadioCheckInterval, 0.02, 1.0),
            ],
        ),
    };
    let spec = GenSpec {
        method: GenMethod::LatinHypercube,
        count,
        seed,
        prefix: "fleet".into(),
        fields,
    };
    Ok((builtin::find(base).map_err(err)?, spec))
}

fn backend_key(id: BackendId) -> (&'static str, &'static str) {
    match id {
        BackendId::Markov => ("solve.markov.calls", "solve.markov.busy_s"),
        BackendId::Mg1 => ("solve.mg1.calls", "solve.mg1.busy_s"),
        BackendId::ErlangPhase => ("solve.erlang_phase.calls", "solve.erlang_phase.busy_s"),
        BackendId::PetriNet => ("solve.petri.calls", "solve.petri.busy_s"),
        BackendId::Des => ("solve.des.calls", "solve.des.busy_s"),
    }
}

/// Solver and network counters from the clocks a report already carries.
fn report_counters(s: &Scenario, r: &ScenarioReport, c: &mut Counters) {
    let sweep = r.sweep.iter().flat_map(|sw| sw.points.iter());
    let evals = r
        .backends
        .iter()
        .chain(sweep.flat_map(|p| p.backends.iter()));
    for b in evals {
        let (calls, busy) = backend_key(b.backend);
        add(c, calls, 1.0);
        add(c, busy, b.eval_seconds);
        let simulated = s.cpu.horizon * s.cpu.replications as f64;
        match b.backend {
            BackendId::PetriNet => add(c, "solve.petri.sim_s", simulated),
            BackendId::Des => add(c, "solve.des.sim_s", simulated),
            _ => {}
        }
    }
    add(c, "network.busy_s", r.phase_seconds.network_seconds);
    add(c, "network.nodes", report_nodes(r) as f64);
}

fn report_nodes(r: &ScenarioReport) -> u64 {
    r.network.as_ref().map_or(0, |n| n.nodes.len() as u64)
        + r.network_aggregate.as_ref().map_or(0, |n| n.node_count)
}

fn max_delta_pp(reports: &[&ScenarioReport]) -> f64 {
    reports
        .iter()
        .flat_map(|r| r.agreement.iter())
        .map(|a| a.mean_abs_delta_pp)
        .fold(0.0, f64::max)
}

/// Summed size of the regular files in `dir` whose name ends in `suffix`.
fn dir_bytes(dir: &Path, suffix: &str) -> f64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(suffix)))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// Progress-callback timestamps: hits resolve one at a time on the caller,
/// and one worker returns shards one at a time, so successive gaps are
/// per-scenario latencies.
struct Stamps(Mutex<Vec<Instant>>);

impl Stamps {
    fn new(n: usize) -> Self {
        Stamps(Mutex::new(Vec::with_capacity(n)))
    }

    fn record(&self) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Instant::now());
    }

    fn gaps(self, from: Instant) -> Vec<f64> {
        let stamps = self.0.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut prev = from;
        stamps
            .into_iter()
            .map(|s| {
                let gap = s.duration_since(prev).as_secs_f64();
                prev = s;
                gap
            })
            .collect()
    }
}

/// The two fleet workloads.
struct FleetBench {
    workload: Workload,
    root: PathBuf,
    fleet: PathBuf,
    seed: u64,
    size: usize,
    timing: Vec<usize>,
    /// Per-scenario digest of the deterministic columns that every pass
    /// must reproduce: the first pass's, or on `fleet_dist` an in-process
    /// run's.
    digests: Option<Vec<u128>>,
    max_delta_pp: Option<f64>,
    /// The last pass's scenarios and reports, for the probe.
    last: Vec<(Scenario, ScenarioReport)>,
    /// The last pass's rows, which a warm re-run must reproduce exactly.
    last_rows: Vec<Option<Vec<String>>>,
}

impl FleetBench {
    fn new(workload: Workload, root: &Path, seed: u64, size: usize) -> Self {
        FleetBench {
            workload,
            root: root.to_path_buf(),
            fleet: PathBuf::new(),
            seed,
            size,
            timing: timing_column_indices(ScenarioReport::CSV_HEADER),
            digests: None,
            max_delta_pp: None,
            last: Vec::new(),
            last_rows: Vec::new(),
        }
    }

    /// The fleet directory.
    fn dir(&self) -> PathBuf {
        self.fleet.clone()
    }

    /// Digest of one scenario's rows without their timing columns.
    fn row_digest(&self, rows: &[String]) -> u128 {
        let stripped: Vec<String> = rows
            .iter()
            .map(|r| strip_columns(r, &self.timing))
            .collect();
        digest(stripped.iter().map(String::as_str))
    }

    /// `wsnem check`'s full passes (`full`) or `wsnem run`'s schema-only
    /// preflight; returns per-scenario error flags and the diagnostic count.
    fn check(t: &mut Tracer, scenarios: &[Scenario], full: bool) -> (Vec<bool>, usize) {
        let registry = wsnem_scenario::global_registry();
        let config = LintConfig::default();
        let (name, opts) = if full {
            ("analysis.check", CheckOptions { only_schema: false })
        } else {
            ("analysis.preflight", CheckOptions { only_schema: true })
        };
        let mut errors = Vec::with_capacity(scenarios.len());
        let mut diagnostics = 0;
        for s in scenarios {
            let found = t.span(name, |_| {
                resolve(check_scenario(s, registry, opts), &config)
            });
            diagnostics += found.len();
            errors.push(found.iter().any(|d| d.severity == Severity::Error));
        }
        (errors, diagnostics)
    }

    /// Run the loaded fleet the way `wsnem run <dir>` or `wsnem serve` does.
    fn execute(
        &self,
        t: &mut Tracer,
        scenarios: &[Scenario],
        c: &mut Counters,
    ) -> Result<(RunOutput, Vec<f64>), String> {
        let n = scenarios.len();
        let stamps = Stamps::new(n);
        let on_done = |_: usize, _: usize, _: &str| stamps.record();
        match self.workload {
            Workload::FleetDist => {
                let none: Vec<Option<&ResultCache>> = vec![None; n];
                let coord = t.span("fleetd.bind", |_| {
                    Coordinator::bind(
                        scenarios,
                        &none,
                        CacheMode::Disabled,
                        ServeOptions {
                            addr: "127.0.0.1:0".into(),
                            threads: Some(1),
                            ..ServeOptions::default()
                        },
                    )
                });
                let coord = coord.map_err(err)?;
                let addr = coord.local_addr().map_err(err)?.to_string();
                let started = Instant::now();
                let (outcome, worker) = std::thread::scope(|scope| {
                    let worker = scope.spawn(move || {
                        run_worker(
                            &addr,
                            WorkerOptions {
                                name: "bench-worker".into(),
                                max_retries: 3,
                                ..WorkerOptions::default()
                            },
                        )
                    });
                    let outcome = t.span("fleetd.run", |_| coord.run(Some(&on_done)));
                    (outcome, worker.join())
                });
                let outcome = outcome.map_err(err)?;
                worker
                    .map_err(|_| "the worker thread panicked".to_owned())?
                    .map_err(err)?;
                let shard_s: f64 = outcome
                    .results
                    .iter()
                    .flatten()
                    .map(|r| r.elapsed_seconds)
                    .sum();
                add(c, "fleetd.wait_s", outcome.metrics.wall_seconds - shard_s);
                let samples = stamps.gaps(started);
                Ok((
                    RunOutput {
                        results: outcome.results,
                        dist: Some(outcome.dist),
                        hits: outcome.cache.hits,
                        misses: outcome.cache.misses,
                    },
                    samples,
                ))
            }
            _ => {
                let dir = self.dir();
                let (results, metrics, cache) =
                    t.span("fleet", |_| run_local(scenarios, Some(&dir), None))?;
                add(c, "runner.calls", cache.misses as f64);
                add(c, "runner.busy_s", metrics.busy_seconds);
                if cache.misses > 0 {
                    let capacity = metrics.wall_seconds * metrics.workers as f64;
                    add(c, "runner.idle_s", capacity - metrics.busy_seconds);
                    add(c, "runner.capacity_s", capacity);
                }
                let samples = results
                    .iter()
                    .flatten()
                    .map(|r| r.elapsed_seconds)
                    .collect();
                Ok((
                    RunOutput {
                        results,
                        dist: None,
                        hits: cache.hits,
                        misses: cache.misses,
                    },
                    samples,
                ))
            }
        }
    }

    /// Check one pass's outputs; returns the failure count.
    fn check_outputs(
        &mut self,
        check_errors: &[bool],
        out: &RunOutput,
        rows: &[Option<Vec<String>>],
    ) -> usize {
        let n = rows.len();
        let mut bad = vec![false; n];
        for i in 0..n {
            bad[i] |= check_errors[i] || rows[i].is_none();
        }
        // Every pass reproduces the reference's deterministic columns.
        let digests: Vec<u128> = rows
            .iter()
            .map(|r| r.as_ref().map_or(0, |rows| self.row_digest(rows)))
            .collect();
        let reference = self.digests.get_or_insert_with(|| digests.clone());
        for i in 0..n {
            bad[i] |= reference.get(i) != Some(&digests[i]);
        }
        // Every agreement check is within its tolerance.
        for (i, r) in out.results.iter().enumerate() {
            if let Ok(r) = r {
                bad[i] |= r
                    .agreement
                    .iter()
                    .any(|a| a.within_tolerance == Some(false));
            }
        }
        let mut failed = bad.iter().filter(|&&b| b).count();
        // The worst agreement delta repeats exactly.
        let reports: Vec<&ScenarioReport> = out.results.iter().flatten().collect();
        let delta = max_delta_pp(&reports);
        if *self.max_delta_pp.get_or_insert(delta) != delta {
            failed += 1;
        }
        // A cold pass misses every scenario and stores every report.
        if self.workload == Workload::FleetCold {
            let stored = ResultCache::open_under(self.dir()).map_or(0, |c| c.len());
            failed += usize::from(!(out.hits == 0 && out.misses == n && stored == n));
        }
        // Every shard went to the worker, with no recovery machinery used.
        if let Some(d) = &out.dist {
            let clean = d.shards_remote == n
                && d.reassigned == 0
                && d.rejected_frames == 0
                && !d.fell_back_local;
            failed += usize::from(!clean);
        }
        failed
    }
}

/// What `fleet::run_cached_with` returns.
type LocalRun = (
    Vec<Result<ScenarioReport, ScenarioError>>,
    BatchMetrics,
    CacheStats,
);

/// `wsnem run <dir>` on [`FLEET_THREADS`] workers: `fleet::run_cached_with`
/// with the fleet directory's own result cache, or with none when `dir` is
/// `None` (`--no-cache`).
fn run_local(
    scenarios: &[Scenario],
    dir: Option<&Path>,
    on_done: Option<BatchProgress<'_>>,
) -> Result<LocalRun, String> {
    let cache = dir.map(ResultCache::open_under).transpose().map_err(err)?;
    let slots = vec![cache.as_ref(); scenarios.len()];
    let opts = FleetRunOptions {
        threads: Some(FLEET_THREADS),
        mode: if cache.is_some() {
            CacheMode::ReadWrite
        } else {
            CacheMode::Disabled
        },
        timeout_seconds: None,
    };
    Ok(fleet::run_cached_with(scenarios, &slots, opts, on_done))
}

/// Results of one fleet execution, local or distributed.
struct RunOutput {
    results: Vec<Result<ScenarioReport, ScenarioError>>,
    dist: Option<DistStats>,
    hits: usize,
    misses: usize,
}

/// The merged CSV and each scenario's rows (`None` for a failed scenario).
fn render(
    t: &mut Tracer,
    results: &[Result<ScenarioReport, ScenarioError>],
) -> (String, Vec<Option<Vec<String>>>) {
    t.span("report.render", |_| {
        let mut csv = String::from(ScenarioReport::CSV_HEADER);
        csv.push('\n');
        let mut per = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Ok(report) => {
                    let rows = report.csv_rows();
                    for row in &rows {
                        csv.push_str(row);
                        csv.push('\n');
                    }
                    per.push(Some(rows));
                }
                Err(_) => per.push(None),
            }
        }
        (csv, per)
    })
}

impl Bench for FleetBench {
    fn setup(&mut self, t: &mut Tracer, dir: &Path) -> Result<(), String> {
        self.fleet = dir.to_path_buf();
        let (base, spec) = fleet_spec(self.workload, self.seed, self.size)?;
        t.span("gen", |_| {
            gen::write_fleet(dir, &base, &spec, FileFormat::Toml)
        })
        .map_err(err)?;
        Ok(())
    }

    fn after_setup(&mut self) -> Result<(), String> {
        if self.workload != Workload::FleetDist {
            return Ok(());
        }
        // The in-process run whose rows, without the timing columns, every
        // distributed pass must reproduce.
        let scenarios: Vec<Scenario> = fleet::load_dir(self.dir())
            .map_err(err)?
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        let (results, _, _) = run_local(&scenarios, None, None)?;
        let mut expected = Vec::with_capacity(results.len());
        for r in results {
            let r = r.map_err(|e| format!("in-process reference run: {e}"))?;
            expected.push(self.row_digest(&r.csv_rows()));
        }
        self.digests = Some(expected);
        Ok(())
    }

    fn pass(&mut self, t: &mut Tracer) -> Result<PassResult, String> {
        // Only one pass's reports are held at a time.
        self.last = Vec::new();
        self.last_rows = Vec::new();
        let dir = self.dir();
        if self.workload == Workload::FleetCold {
            // Every cold pass starts from an empty cache.
            let cache_dir = dir.join(wsnem_scenario::cache::DIR_NAME);
            if cache_dir.exists() {
                std::fs::remove_dir_all(&cache_dir).map_err(err)?;
                crate::settle(&self.root);
            }
        }
        let mut c = Counters::new();
        let started = Instant::now();
        let run = t.span(crate::trace::PASS, |t| {
            let loaded = t.span("files", |_| fleet::load_dir(&dir)).map_err(err)?;
            let (paths, scenarios): (Vec<PathBuf>, Vec<Scenario>) = loaded.into_iter().unzip();
            let full = self.workload == Workload::FleetCold;
            let (errors, diagnostics) = Self::check(t, &scenarios, full);
            let (out, samples) = self.execute(t, &scenarios, &mut c)?;
            let (csv, rows) = render(t, &out.results);
            Ok::<_, String>((
                paths,
                scenarios,
                errors,
                diagnostics,
                out,
                samples,
                csv,
                rows,
            ))
        });
        let wall = started.elapsed().as_secs_f64();
        let (paths, scenarios, errors, diagnostics, out, samples, csv, rows) = run?;
        let n = scenarios.len();
        let failed = self.check_outputs(&errors, &out, &rows);
        let nodes = out.results.iter().flatten().map(report_nodes).sum();
        if t.enabled() {
            add(&mut c, "files.files", n as f64);
            let bytes: u64 = paths
                .iter()
                .filter_map(|p| std::fs::metadata(p).ok())
                .map(|m| m.len())
                .sum();
            add(&mut c, "files.bytes", bytes as f64);
            add(&mut c, "analysis.diagnostics", diagnostics as f64);
            add(&mut c, "report.bytes", csv.len() as f64);
            if self.workload == Workload::FleetCold {
                let written = dir_bytes(&dir.join(wsnem_scenario::cache::DIR_NAME), ".entry");
                add(&mut c, "cache.bytes_written", written);
            }
            if let Some(d) = &out.dist {
                add(&mut c, "fleetd.shards_remote", d.shards_remote as f64);
                add(&mut c, "fleetd.reassigned", d.reassigned as f64);
                add(&mut c, "fleetd.rejected_frames", d.rejected_frames as f64);
                add(
                    &mut c,
                    "fleetd.duplicate_results",
                    d.duplicate_results as f64,
                );
            }
            for (s, r) in scenarios.iter().zip(&out.results) {
                if let Ok(r) = r {
                    report_counters(s, r, &mut c);
                }
            }
        }
        self.last = scenarios
            .into_iter()
            .zip(out.results)
            .filter_map(|(s, r)| r.ok().map(|r| (s, r)))
            .collect();
        self.last_rows = rows;
        Ok(PassResult {
            wall,
            scenarios: n,
            nodes,
            samples,
            failed,
            counters: c,
        })
    }

    fn finish(&mut self) -> Result<usize, String> {
        if self.workload != Workload::FleetCold {
            return Ok(0);
        }
        // A warm `wsnem run <dir>` over the cache the last pass filled: every
        // scenario hits, and the merged CSV is byte-identical to the cold one.
        let mut t = Tracer::new(false);
        let scenarios: Vec<Scenario> = fleet::load_dir(self.dir())
            .map_err(err)?
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        let (errors, _) = Self::check(&mut t, &scenarios, false);
        let (results, _, cache) = run_local(&scenarios, Some(&self.dir()), None)?;
        let (_, rows) = render(&mut t, &results);
        let n = scenarios.len();
        let mismatched = (0..n)
            .filter(|&i| errors[i] || rows[i].is_none() || self.last_rows.get(i) != Some(&rows[i]))
            .count();
        Ok(mismatched + usize::from(cache.hits != n))
    }

    fn probe(&mut self, t: &mut Tracer, c: &mut Counters) -> Result<(), String> {
        // The canonical-key hash the cache and the coordinator derive for
        // every scenario.
        for (s, _) in &self.last {
            t.span("cache.key", |_| ResultCache::key_of(s))
                .map_err(err)?;
        }
        match self.workload {
            Workload::FleetCold => {
                // The read side: every scenario looked up in the cache the
                // last pass filled, as a warm `wsnem run <dir>` does.
                let cache_dir = self.dir().join(wsnem_scenario::cache::DIR_NAME);
                let cache = ResultCache::open(&cache_dir).map_err(err)?;
                for (s, _) in &self.last {
                    let hit = t.span("cache.lookup", |_| cache.lookup(s)).map_err(err)?;
                    add(
                        c,
                        if hit.is_some() {
                            "cache.hits"
                        } else {
                            "cache.misses"
                        },
                        1.0,
                    );
                }
                add(c, "cache.bytes_read", dir_bytes(&cache_dir, ".entry"));
                // The write side, once more per scenario into an empty cache.
                let cache = ResultCache::open(self.root.join("probe-cache")).map_err(err)?;
                for (s, r) in &self.last {
                    t.span("cache.store", |_| cache.store(s, r)).map_err(err)?;
                }
            }
            Workload::FleetDist => {
                // The frames of one shard round-trip, re-encoded: Request,
                // Assign and Result per shard, plus Hello, Welcome and Done.
                let worker = "bench-worker".to_owned();
                let mut messages = vec![
                    Message::Hello {
                        worker: worker.clone(),
                        protocol: wsnem_fleetd::PROTOCOL_VERSION,
                    },
                    Message::Welcome {
                        shards: self.last.len() as u64,
                        timeout_ms: None,
                    },
                    Message::Done,
                ];
                for (s, r) in &self.last {
                    let key = wsnem_scenario::cache::canonical_key(s).map_err(err)?;
                    let digest = ResultCache::digest_of_key(&key);
                    let report = serde_json::to_string(r).map_err(err)?;
                    messages.push(Message::Request {
                        worker: worker.clone(),
                    });
                    messages.push(Message::Assign {
                        digest: digest.clone(),
                        scenario: key,
                    });
                    messages.push(Message::Result { digest, report });
                }
                let mut frames = Vec::with_capacity(messages.len());
                for m in &messages {
                    frames.push(
                        t.span("fleetd.encode", |_| encode_message(m))
                            .map_err(err)?,
                    );
                }
                for (f, m) in frames.iter().zip(&messages) {
                    let back = t
                        .span("fleetd.decode", |_| decode_payload(&f[4..]))
                        .map_err(err)?;
                    if &back != m {
                        return Err("a re-encoded frame did not decode to its message".into());
                    }
                }
                add(c, "fleetd.frames", frames.len() as f64);
                add(
                    c,
                    "fleetd.wire_bytes",
                    frames.iter().map(|f| f.len() as f64).sum(),
                );
            }
            Workload::MegaTree => unreachable!("not a fleet workload"),
        }
        Ok(())
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "max_delta_pp {} pp (worst agreement delta, repeats exactly across passes)",
            self.max_delta_pp.unwrap_or(0.0)
        )]
    }
}

/// The CI's schema-v5 `mega-tree` template; `{count}` and `{seed}` are
/// filled in.
const MEGA_TREE: &str = r#"schema_version = 5
name = "mega-tree"
description = "Million-node collection tree on the analytic M/G/1 fast path"
profile = "Pxa271"
battery = "TwoAa"
backends = ["Mg1"]

[cpu]
lambda = 1.0
mu = 10.0
power_down_threshold = 0.5
power_up_delay = 0.001
horizon = 1000.0
warmup = 0.0
replications = 2
master_seed = {seed}

[report]
energy_horizon_s = 1000.0

[network]
nodes = []

[network.topology.Tree]
fanout = 4

[network.template]
count = {count}
prefix = "n"
event_rate = 5e-6
tx_per_event = 1.0
rx_rate = 0.0
"#;

/// Depth of the deepest node of a complete fanout-4 tree of `n` nodes:
/// the smallest `d` with `(4^d - 1) / 3 >= n`.
pub fn tree4_depth(n: u64) -> u32 {
    let (mut depth, mut total, mut level) = (0u32, 0u64, 1u64);
    while total < n {
        total += level;
        level *= 4;
        depth += 1;
    }
    depth
}

/// The `mega_tree` workload.
struct MegaBench {
    path: PathBuf,
    seed: u64,
    nodes: u32,
    scenario: Option<Scenario>,
    /// First pass's first-death and mean lifetimes, as bits.
    lifetimes: Option<(u64, u64)>,
}

impl MegaBench {
    fn new(seed: u64, nodes: u32) -> Self {
        MegaBench {
            path: PathBuf::new(),
            seed,
            nodes,
            scenario: None,
            lifetimes: None,
        }
    }

    fn scenario(&self) -> Result<&Scenario, String> {
        self.scenario
            .as_ref()
            .ok_or_else(|| "set-up did not run".into())
    }
}

impl Bench for MegaBench {
    fn setup(&mut self, t: &mut Tracer, dir: &Path) -> Result<(), String> {
        self.path = dir.join("mega-tree.toml");
        let text = MEGA_TREE
            .replace("{count}", &self.nodes.to_string())
            .replace("{seed}", &self.seed.to_string());
        let path = &self.path;
        t.span("gen", |_| std::fs::write(path, text)).map_err(err)?;
        let s = t.span("files", |_| files::load(path)).map_err(err)?;
        self.scenario = Some(s);
        Ok(())
    }

    fn pass(&mut self, t: &mut Tracer) -> Result<PassResult, String> {
        let s = self.scenario()?.clone();
        let started = Instant::now();
        let (report, summary) = t.span(crate::trace::PASS, |t| {
            let report = t.span("runner", |_| wsnem_scenario::run_scenario(&s));
            let summary = report
                .as_ref()
                .ok()
                .map(|r| t.span("report.aggregate", |_| r.summary()));
            (report, summary)
        });
        let wall = started.elapsed().as_secs_f64();
        let mut c = Counters::new();
        let Ok(report) = report else {
            return Ok(PassResult {
                wall,
                scenarios: 1,
                failed: 1,
                ..PassResult::default()
            });
        };
        let mut failed = 0;
        match &report.network_aggregate {
            Some(agg) => {
                let n = u64::from(self.nodes);
                let bits = (
                    agg.first_death_days.to_bits(),
                    agg.mean_lifetime_days.to_bits(),
                );
                let ok = agg.node_count == n
                    && agg.max_hop_depth == tree4_depth(n)
                    && *self.lifetimes.get_or_insert(bits) == bits
                    && summary.is_some_and(|s| s.contains("mega-tree"));
                failed += usize::from(!ok);
            }
            None => failed += 1,
        }
        if t.enabled() {
            report_counters(&s, &report, &mut c);
        }
        Ok(PassResult {
            wall,
            scenarios: 1,
            nodes: report_nodes(&report),
            samples: vec![report.elapsed_seconds],
            failed,
            counters: c,
        })
    }

    fn probe(&mut self, t: &mut Tracer, c: &mut Counters) -> Result<(), String> {
        let s = self.scenario()?;
        let spec = s.network.as_ref().ok_or("mega-tree has no network")?;
        let profile = s.profile.build().map_err(err)?;
        let battery = s.battery.build().map_err(err)?;
        let soa = t
            .span("wsn.build_soa", |_| {
                spec.build_soa(s.cpu, &profile, &battery)
            })
            .map_err(err)?;
        let routing = t.span("wsn.routing", |_| soa.routing())?;
        let analysis = t
            .span("wsn.analyze", |_| {
                soa.analyze_with(
                    wsnem_scenario::global_registry(),
                    BackendId::Mg1,
                    &EvalOptions::default(),
                    None,
                )
            })
            .map_err(err)?;
        fn bytes<T>(v: &[T]) -> f64 {
            std::mem::size_of_val(v) as f64
        }
        let computed = bytes(&soa.parent)
            + bytes(&soa.event_rate)
            + bytes(&soa.tx_per_event)
            + bytes(&soa.rx_rate)
            + bytes(&routing.depths)
            + bytes(&routing.forwarded)
            + bytes(&routing.subtree_sizes)
            + bytes(&analysis.depths)
            + bytes(&analysis.forwarded)
            + bytes(&analysis.subtree_sizes)
            + bytes(&analysis.total_power_mw)
            + bytes(&analysis.lifetime_days)
            + bytes(&analysis.rho);
        add(c, "wsn.nodes", soa.len() as f64);
        add(c, "wsn.bytes_computed", computed);
        Ok(())
    }
}
