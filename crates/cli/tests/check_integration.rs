//! End-to-end tests of `wsnem check` and its satellites: the three seeded
//! mutation fixtures must each fail with their *specific* lint code, the
//! builtins must come back clean under `--deny warnings`, the run/compare
//! preflight must refuse unsound scenarios before any event fires, and
//! `gen --check` must catch fleet drift against the manifest.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn wsnem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wsnem"))
        .args(args)
        .output()
        .expect("spawn wsnem")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .display()
        .to_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsnem-check-integration-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn check_all_builtins_is_clean_even_denying_warnings() {
    let out = wsnem(&["check", "--all", "--deny", "warnings"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
}

#[test]
fn unstable_lambda_fixture_fails_with_e005() {
    let out = wsnem(&[
        "check",
        &fixture("unstable-lambda.toml"),
        "--format",
        "json",
    ]);
    assert!(!out.status.success());
    let json = stdout(&out);
    assert!(json.contains("\"code\": \"E005\""), "{json}");
    assert!(json.contains("unstable-queue"), "{json}");
    // The granular code, not the generic catch-all.
    assert!(!json.contains("\"code\": \"E004\""), "{json}");
    assert!(stderr(&out).contains("1 error(s)"), "{}", stderr(&out));
}

#[test]
fn deadlock_net_fixture_fails_with_e007() {
    let out = wsnem(&["check", &fixture("deadlock.net.json")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("error[E007]"), "{text}");
    assert!(text.contains("inhibitor"), "{text}");
}

#[test]
fn dead_transition_net_fixture_fails_with_e008() {
    let out = wsnem(&["check", &fixture("dead-transition.net.json")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("error[E008]"), "{text}");
    assert!(text.contains("dead"), "{text}");
    // The live cycle keeps this net deadlock-free: E008, not E007.
    assert!(!text.contains("E007"), "{text}");
}

#[test]
fn checking_the_fixture_directory_surfaces_all_three_codes() {
    // A directory target walks every .toml/.json a fleet run would pick up,
    // dispatching *.net.json members to the net passes.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let out = wsnem(&["check", dir.to_str().unwrap()]);
    assert!(!out.status.success());
    let text = stdout(&out);
    for code in ["E005", "E007", "E008"] {
        assert!(text.contains(code), "missing {code} in: {text}");
    }
}

#[test]
fn lint_overrides_rewrite_severities() {
    // Allowing the specific code turns the failing fixture clean — the
    // catch-all must not resurrect it as E004.
    let out = wsnem(&[
        "check",
        &fixture("unstable-lambda.toml"),
        "-A",
        "unstable-queue",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Denying an info-severity lint makes a clean builtin fail.
    let out = wsnem(&[
        "check",
        "--builtin",
        "paper-defaults",
        "-D",
        "structural-class",
    ]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("error[I001]"), "{}", stdout(&out));

    // Unknown lints are rejected with the registry listed.
    let out = wsnem(&["check", "--all", "-D", "no-such-lint"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown lint `no-such-lint`"), "{err}");
    assert!(err.contains("E005"), "{err}");
}

#[test]
fn run_preflight_aborts_before_simulation_and_no_check_forces() {
    let out = wsnem(&["run", &fixture("unstable-lambda.toml")]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("E005"), "{err}");
    assert!(err.contains("nothing was simulated"), "{err}");
    // No report, no batch line: the run aborted before any event fired.
    assert_eq!(stdout(&out), "", "no simulation output expected");

    // --no-check skips the preflight; the failure (if any) is the runner's.
    let out = wsnem(&[
        "run",
        &fixture("unstable-lambda.toml"),
        "--no-check",
        "--quick",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(!err.contains("nothing was simulated"), "{err}");
}

#[test]
fn compare_preflight_aborts_on_unsound_scenarios() {
    let out = wsnem(&["compare", &fixture("unstable-lambda.toml"), "--quick"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("E005"), "{err}");
    assert!(err.contains("nothing was simulated"), "{err}");
}

#[test]
fn validate_exits_non_zero_with_coded_diagnostics() {
    let out = wsnem(&["validate", &fixture("unstable-lambda.toml")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("error[E005]"), "{text}");
    assert!(
        stderr(&out).contains("1 of 1 file(s) invalid"),
        "{}",
        stderr(&out)
    );

    // Clean net specs validate too (check --only-schema semantics).
    let out = wsnem(&[
        "validate",
        &fixture("unstable-lambda.toml"),
        &fixture("deadlock.net.json"),
    ]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("error[E007]"), "{}", stdout(&out));
}

#[test]
fn validate_reports_hostile_nesting_as_a_parse_error() {
    // 50k unclosed brackets used to overflow the parser's stack and abort.
    let dir = temp_dir("deep");
    let json = dir.join("deep.json");
    let toml = dir.join("deep.toml");
    std::fs::write(&json, "[".repeat(50_000)).unwrap();
    std::fs::write(&toml, format!("x = {}", "[".repeat(50_000))).unwrap();
    let out = wsnem(&["validate", json.to_str().unwrap(), toml.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.matches("error[E001]").count(), 2, "{text}");
    assert_eq!(
        text.matches("nesting deeper than 128 levels").count(),
        2,
        "{text}"
    );
}

#[test]
fn gen_check_verifies_fleet_against_manifest() {
    let dir = temp_dir("gen");
    let dir_s = dir.to_str().unwrap();
    let out = wsnem(&["gen", dir_s, "--field", "lambda=0.25:0.75:3"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Pristine fleet verifies clean.
    let out = wsnem(&["gen", dir_s, "--check"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("matches its manifest"),
        "{}",
        stderr(&out)
    );

    // Deleting a listed file fails with E009 naming it.
    std::fs::remove_file(dir.join("fleet-2.toml")).unwrap();
    let out = wsnem(&["gen", dir_s, "--check"]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("error[E009]"), "{text}");
    assert!(text.contains("fleet-2.toml"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_json_envelope_carries_counts_and_locations() {
    let out = wsnem(&["check", "--builtin", "paper-defaults", "--format", "json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = stdout(&out);
    let v = serde_json::parse(&json).expect("valid JSON");
    let map = |v: &serde_json::Value, k: &str| -> serde_json::Value {
        match v {
            serde_json::Value::Map(entries) => entries
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing key `{k}` in {v:?}")),
            other => panic!("expected map, got {other:?}"),
        }
    };
    // The parser reads in-range integers as Int regardless of the writer's
    // unsigned origin.
    assert_eq!(map(&v, "checked"), serde_json::Value::Int(1));
    let counts = map(&v, "counts");
    assert_eq!(map(&counts, "errors"), serde_json::Value::Int(0));
    match map(&v, "diagnostics") {
        serde_json::Value::Seq(diags) => {
            assert!(!diags.is_empty(), "builtins report informational findings");
            for d in &diags {
                assert_eq!(map(d, "severity"), serde_json::Value::Str("info".into()));
            }
        }
        other => panic!("expected diagnostics array, got {other:?}"),
    }
}
