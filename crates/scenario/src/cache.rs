//! Content-hash result caching for scenario runs.
//!
//! A fleet re-run after editing 3 of 1000 files should simulate exactly 3
//! scenarios. This module makes that true by keying finished
//! [`ScenarioReport`]s on a [128-bit FNV-1a](wsnem_stats::hash) digest of
//! the scenario's **canonical serialization** — compact JSON of the full
//! [`Scenario`] struct, which covers everything a run depends on: every
//! schema field (the `schema_version` included), the backend set, the
//! master seed and replication/horizon options inside `cpu`, workload,
//! service law, sweep, network and radio sections. Two scenarios hash
//! equal exactly when they would produce the same report; editing *any*
//! field (or bumping the schema) changes the digest and misses the cache.
//!
//! Layout: one file per entry under `.wsnem-cache/` (next to the scenario
//! files by default), named `<32-hex-digest>.entry`: the canonical key
//! string on the first line, the report JSON on the second. Lookups
//! re-serialize the probe scenario and compare the stored key line
//! byte-for-byte **before** parsing the report, so even an adversarial FNV
//! collision cannot return the wrong report and a mismatch costs no parse;
//! this keeps a 1000-hit warm run's lookup cost to one small serialize +
//! one memcmp + one report parse per scenario. A mismatch is treated as a
//! miss. Stores write through a temp file + rename so concurrent runs
//! never observe a torn entry.
//!
//! The cache format itself is versioned ([`CACHE_FORMAT`], folded into the
//! digest): when the report schema changes shape, or a solver's numbers
//! change (even in the last bits), bumping the constant orphans all old
//! entries instead of failing to deserialize them or replaying stale
//! numbers — stale files are simply never looked up again and can be
//! deleted wholesale (`rm -rf .wsnem-cache`).

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use wsnem_stats::StableHasher;

use crate::error::ScenarioError;
use crate::report::ScenarioReport;
use crate::schema::Scenario;

/// Directory name the cache lives under.
pub const DIR_NAME: &str = ".wsnem-cache";

/// Cache on-disk format version, folded into every key digest. Bump when
/// the entry layout or [`ScenarioReport`] changes shape, or when a backend's
/// results change, so old entries are orphaned instead of misread or
/// replayed. Version 2: the Erlang-phase backend's level-by-level solve.
pub const CACHE_FORMAT: u32 = 2;

/// How a run should use the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Look up before running, store after (the default).
    #[default]
    ReadWrite,
    /// Never look up, but store fresh results (`--refresh`: forces
    /// recompute and repopulates the cache).
    Refresh,
    /// Never look up, never store (`--no-cache`).
    Disabled,
}

/// Hit/miss counters for one batch, surfaced in the CLI batch line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Scenarios answered from the cache.
    pub hits: usize,
    /// Scenarios that had to be simulated.
    pub misses: usize,
}

/// A handle on one `.wsnem-cache/` directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

/// The canonical key string: compact JSON of the whole scenario. Compact
/// (not pretty) so unrelated formatting changes cannot perturb the digest,
/// and struct-field order is fixed by the schema definition.
pub fn canonical_key(scenario: &Scenario) -> Result<String, ScenarioError> {
    serde_json::to_string(scenario).map_err(|e| {
        ScenarioError::Parse(format!(
            "cache: cannot serialize scenario `{}`: {e}",
            scenario.name
        ))
    })
}

impl ResultCache {
    /// Open (creating if missing) the cache under `root/.wsnem-cache`.
    pub fn open_under(root: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        Self::open(root.as_ref().join(DIR_NAME))
    }

    /// Open (creating if missing) a cache at exactly `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ScenarioError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ScenarioError::Io(format!("cache: {}: {e}", dir.display())))?;
        Ok(Self { dir })
    }

    /// The directory this cache stores entries in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The 32-hex-character digest a scenario files under: FNV-1a 128 over
    /// the format-version preamble and the canonical key string.
    pub fn key_of(scenario: &Scenario) -> Result<String, ScenarioError> {
        Ok(Self::digest_of(&canonical_key(scenario)?))
    }

    /// Digest of an already-serialized canonical key (avoids serializing
    /// the scenario twice on the lookup/store paths). Public so the
    /// distributed layer, which ships canonical key strings over the wire,
    /// can verify a shard digest without re-deriving the scenario.
    pub fn digest_of_key(key: &str) -> String {
        Self::digest_of(key)
    }

    fn digest_of(key: &str) -> String {
        let mut h = StableHasher::new();
        h.write_delimited(format!("wsnem-cache-v{CACHE_FORMAT}").as_bytes());
        h.write_delimited(key.as_bytes());
        h.finish_hex()
    }

    fn entry_path(&self, digest: &str) -> PathBuf {
        self.dir.join(format!("{digest}.entry"))
    }

    /// Look a scenario up. `Ok(Some(report))` only when an entry exists,
    /// its stored canonical key matches this scenario byte-for-byte, and
    /// the report parses. A missing, torn, or colliding entry is a miss —
    /// never an error (the run can always fall back to simulating).
    pub fn lookup(&self, scenario: &Scenario) -> Result<Option<ScenarioReport>, ScenarioError> {
        let key = canonical_key(scenario)?;
        let digest = Self::digest_of(&key);
        let Ok(text) = std::fs::read_to_string(self.entry_path(&digest)) else {
            return Ok(None);
        };
        // Key line first, report JSON second: verify the cheap memcmp
        // before paying for the report parse.
        let Some((stored_key, report_json)) = text.split_once('\n') else {
            return Ok(None);
        };
        if stored_key != key {
            return Ok(None);
        }
        let Ok(report) = serde_json::from_str::<ScenarioReport>(report_json) else {
            return Ok(None);
        };
        Ok(Some(report))
    }

    /// Store a finished report under its scenario's digest, atomically
    /// (temp file + rename), overwriting any previous entry.
    pub fn store(&self, scenario: &Scenario, report: &ScenarioReport) -> Result<(), ScenarioError> {
        let key = canonical_key(scenario)?;
        let digest = Self::digest_of(&key);
        let report_json = serde_json::to_string(report)
            .map_err(|e| ScenarioError::Parse(format!("cache: {e}")))?;
        let text = format!("{key}\n{report_json}\n");
        let path = self.entry_path(&digest);
        // Unique temp name per process *and* per store: two threads of one
        // process storing the same digest concurrently (two `run_cached`
        // calls racing on one directory) must not share a temp file, or
        // one writer's rename could publish the other's half-written
        // bytes. The process-wide counter makes every temp path distinct;
        // the rename then publishes atomically, last writer wins.
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".tmp-{digest}-{}-{seq}", std::process::id()));
        std::fs::write(&tmp, text)
            .map_err(|e| ScenarioError::Io(format!("cache: {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            ScenarioError::Io(format!("cache: {}: {e}", path.display()))
        })?;
        Ok(())
    }

    /// Number of entries currently on disk (for tests and diagnostics).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| {
                        e.file_name()
                            .to_str()
                            .is_some_and(|n| n.ends_with(".entry") && !n.starts_with('.'))
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::runner::run_scenario;
    use wsnem_core::BackendId;

    fn quick(mut s: Scenario) -> Scenario {
        s.cpu = s.cpu.with_replications(2).with_horizon(200.0);
        s
    }

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("wsnem-cache-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let s = builtin::paper_defaults();
        let a = ResultCache::key_of(&s).unwrap();
        assert_eq!(a, ResultCache::key_of(&s).unwrap(), "deterministic");
        assert_eq!(a.len(), 32);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));

        // Every kind of edit the issue names must change the digest.
        let mut edited = s.clone();
        edited.cpu = edited.cpu.with_lambda(1.25);
        assert_ne!(a, ResultCache::key_of(&edited).unwrap(), "schema field");

        let mut edited = s.clone();
        edited.cpu = edited.cpu.with_seed(s.cpu.master_seed + 1);
        assert_ne!(a, ResultCache::key_of(&edited).unwrap(), "seed");

        let mut edited = s.clone();
        edited.backends = vec![BackendId::Markov];
        assert_ne!(a, ResultCache::key_of(&edited).unwrap(), "backend set");

        let mut edited = s.clone();
        edited.schema_version = 3;
        assert_ne!(a, ResultCache::key_of(&edited).unwrap(), "schema version");

        // Even a pure description edit misses: the canonical form is the
        // whole file, so "identical" means identical.
        let mut edited = s;
        edited.description += " (edited)";
        assert_ne!(a, ResultCache::key_of(&edited).unwrap(), "description");
    }

    #[test]
    fn store_then_lookup_round_trips_bit_identically() {
        let cache = temp_cache("roundtrip");
        let s = quick(builtin::paper_defaults());
        assert_eq!(cache.lookup(&s).unwrap(), None, "cold cache misses");
        let report = run_scenario(&s).unwrap();
        cache.store(&s, &report).unwrap();
        assert_eq!(cache.len(), 1);
        let cached = cache.lookup(&s).unwrap().expect("warm cache hits");
        assert_eq!(cached, report, "stored report returned verbatim");
        // Bit-identical through the serialized form too (what the merged
        // CSV/JSON actually renders from).
        assert_eq!(
            serde_json::to_string(&cached).unwrap(),
            serde_json::to_string(&report).unwrap()
        );
    }

    #[test]
    fn edited_scenarios_miss() {
        let cache = temp_cache("miss");
        let s = quick(builtin::paper_defaults());
        let report = run_scenario(&s).unwrap();
        cache.store(&s, &report).unwrap();
        let mut edited = s.clone();
        edited.cpu = edited.cpu.with_power_down_threshold(0.7);
        assert_eq!(cache.lookup(&edited).unwrap(), None);
        // The original still hits.
        assert!(cache.lookup(&s).unwrap().is_some());
    }

    #[test]
    fn colliding_or_torn_entries_read_as_misses() {
        let cache = temp_cache("torn");
        let s = quick(builtin::paper_defaults());
        let report = run_scenario(&s).unwrap();
        cache.store(&s, &report).unwrap();
        let digest = ResultCache::key_of(&s).unwrap();
        let path = cache.dir().join(format!("{digest}.entry"));

        // Torn entry with no key/report separator: miss, not error.
        std::fs::write(&path, "{ not an entry").unwrap();
        assert_eq!(cache.lookup(&s).unwrap(), None);

        // Right key line, torn report JSON: miss, not error.
        let key = canonical_key(&s).unwrap();
        std::fs::write(&path, format!("{key}\n{{ not json")).unwrap();
        assert_eq!(cache.lookup(&s).unwrap(), None);

        // A well-formed entry whose stored key belongs to a *different*
        // scenario (what an FNV collision would look like): miss.
        let mut other = s.clone();
        other.name = "someone-else".into();
        let other_key = canonical_key(&other).unwrap();
        let report_json = serde_json::to_string(&report).unwrap();
        std::fs::write(&path, format!("{other_key}\n{report_json}\n")).unwrap();
        assert_eq!(cache.lookup(&s).unwrap(), None, "key verification");

        // Re-storing repairs the entry.
        cache.store(&s, &report).unwrap();
        assert_eq!(cache.lookup(&s).unwrap(), Some(report));
    }

    #[test]
    fn len_counts_only_entries() {
        let cache = temp_cache("len");
        assert!(cache.is_empty());
        let s = quick(builtin::paper_defaults());
        let report = run_scenario(&s).unwrap();
        cache.store(&s, &report).unwrap();
        // A stray temp file and a dotfile are not entries.
        std::fs::write(cache.dir().join(".tmp-leftover"), "x").unwrap();
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }
}
