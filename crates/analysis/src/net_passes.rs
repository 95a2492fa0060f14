//! Net-level passes: build the per-node EDSPN (or take a raw net spec) and
//! prove what can be proved before simulating — conservation from P-semiflow
//! coverage, steady-cycle existence from T-semiflows, deadlock and dead
//! transitions from bounded reachability, and the structural class.
//!
//! None of these proofs reads a firing delay, so [`check_net`] memoizes them
//! per untimed net structure ([`StructureKey`]): a fleet whose scenarios
//! differ only in rates proves its EDSPN once and re-stamps the findings
//! with each scenario's location.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use wsnem_core::build_cpu_edspn_with_service;
use wsnem_petri::analysis::{
    dead_transitions, explain_dead_marking, explore, is_free_choice, is_marked_graph,
    is_state_machine, p_semiflows, structurally_dead_transitions, t_semiflows, ReachOptions,
};
use wsnem_petri::{PetriError, PetriNet, StructureKey};
use wsnem_scenario::Scenario;
use wsnem_stats::Dist;

use crate::diag::{Diagnostic, Location};
use crate::lints;

/// Exploration budget for `wsnem check`: small enough that checking a
/// thousand-scenario fleet stays interactive, large enough to cover every
/// bounded net the models build (the EDSPN's bounded component has a few
/// dozen markings; mutation-style fixture nets have a handful).
pub const CHECK_REACH_OPTIONS: ReachOptions = ReachOptions {
    max_markings: 2048,
    max_tokens: 128,
};

/// Check the scenario's per-node EDSPN: build it from the scenario's λ,
/// service distribution, T and D exactly as the Petri backend would, then
/// run the net passes on it.
pub fn run(s: &Scenario) -> Vec<Diagnostic> {
    match scenario_net(s) {
        Some(net) => check_net(&net, Location::scenario(&s.name)),
        // An unbuildable net means some parameter is out of range; the
        // scenario passes' catch-all already reports that with field-level
        // context, so stay quiet rather than duplicate it.
        None => Vec::new(),
    }
}

/// The scenario's per-node EDSPN, as the Petri backend builds it.
fn scenario_net(s: &Scenario) -> Option<PetriNet> {
    let service: Dist = s
        .service
        .as_ref()
        .map(|sv| sv.to_dist(s.cpu.mu))
        .unwrap_or(Dist::Exponential { rate: s.cpu.mu });
    build_cpu_edspn_with_service(
        s.cpu.lambda,
        service,
        s.cpu.power_down_threshold,
        s.cpu.power_up_delay,
    )
    .ok()
    .map(|(net, _)| net)
}

/// Distinct net structures [`check_net`] remembers, oldest evicted first. A
/// fleet of one builtin's variants shares a single structure.
const MEMO_CAPACITY: usize = 32;

/// Process-wide memo of proven structures, each with its findings at
/// [`Location::default`].
type Memo = VecDeque<(StructureKey, Arc<[Diagnostic]>)>;
static MEMO: Mutex<Memo> = Mutex::new(VecDeque::new());

fn memo() -> MutexGuard<'static, Memo> {
    // Proofs run outside the lock and each update is a single push or pop,
    // so a panic elsewhere never leaves the memo half-written.
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

fn memo_lookup(key: &StructureKey) -> Option<Arc<[Diagnostic]>> {
    memo()
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, d)| Arc::clone(d))
}

/// Run every net pass on an already-built net. `loc` seeds the location of
/// each finding (file or scenario); place/transition names go in `field`.
/// The proofs are memoized per [`StructureKey`]; a hit costs one key build
/// and a copy of the findings.
pub fn check_net(net: &PetriNet, loc: Location) -> Vec<Diagnostic> {
    let key = net.structure_key();
    let proven = match memo_lookup(&key) {
        Some(proven) => proven,
        None => {
            let proven: Arc<[Diagnostic]> = prove(net, &Location::default()).into();
            let mut memo = memo();
            if !memo.iter().any(|(k, _)| *k == key) {
                if memo.len() == MEMO_CAPACITY {
                    memo.pop_front();
                }
                memo.push_back((key, Arc::clone(&proven)));
            }
            proven
        }
    };
    // The passes set `field` themselves (a place or transition name) or
    // leave the caller's, so this reproduces an unmemoized run at `loc`.
    proven
        .iter()
        .map(|d| {
            let mut d = d.clone();
            let field = d.location.field.take();
            d.location = loc.clone();
            if field.is_some() {
                d.location.field = field;
            }
            d
        })
        .collect()
}

/// The net passes proper, unmemoized.
fn prove(net: &PetriNet, loc: &Location) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    semiflow_pass(net, loc, &mut out);
    structural_pass(net, loc, &mut out);
    dead_and_deadlock_pass(net, loc, &mut out);
    out
}

fn name_list(names: impl IntoIterator<Item = String>) -> String {
    names.into_iter().collect::<Vec<_>>().join(", ")
}

/// P-semiflow coverage (conservation / structural boundedness) and
/// T-semiflow existence (a steady firing cycle).
fn semiflow_pass(net: &PetriNet, loc: &Location, out: &mut Vec<Diagnostic>) {
    match p_semiflows(net) {
        Ok(flows) => {
            let uncovered: Vec<String> = net
                .places()
                .filter(|p| flows.iter().all(|y| y[p.index()] == 0))
                .map(|p| net.place_name(p).to_owned())
                .collect();
            if uncovered.is_empty() {
                out.push(lints::SEMIFLOW_COVERAGE.at(
                    loc.clone(),
                    format!(
                        "every place is covered by one of {} P-semiflow(s): token \
                         counts are conserved, so the net is structurally bounded",
                        flows.len()
                    ),
                ));
            } else {
                out.push(lints::SEMIFLOW_COVERAGE.at(
                    loc.clone().with_field(name_list(uncovered)),
                    "no P-semiflow covers these places: token counts there are not \
                     conserved (for the EDSPN's job buffer under open arrivals this \
                     is expected — boundedness is a stability question, not a \
                     structural one)",
                ));
            }
        }
        Err(PetriError::InvariantExplosion { .. }) => out.push(lints::REACHABILITY_CAPPED.at(
            loc.clone(),
            "P-semiflow computation exceeded its row budget; conservation unverified",
        )),
        Err(_) => {}
    }
    match t_semiflows(net) {
        Ok(flows) if flows.is_empty() => {
            out.push(
                lints::NO_T_SEMIFLOW
                    .at(
                        loc.clone(),
                        "no T-semiflow exists: no firing mix reproduces a marking, so \
                         the net has no steady repeating cycle",
                    )
                    .with_help(
                        "a long-run model needs a repeatable cycle; check for \
                         transitions that only drain the initial tokens",
                    ),
            );
        }
        Ok(_) => {}
        Err(PetriError::InvariantExplosion { .. }) => out.push(lints::REACHABILITY_CAPPED.at(
            loc.clone(),
            "T-semiflow computation exceeded its row budget; cycle existence unverified",
        )),
        Err(_) => {}
    }
}

/// Structural classification, reported as a plain fact.
fn structural_pass(net: &PetriNet, loc: &Location, out: &mut Vec<Diagnostic>) {
    let class = if is_state_machine(net) {
        "state machine (no synchronization)"
    } else if is_marked_graph(net) {
        "marked graph (no conflict)"
    } else if is_free_choice(net) {
        "free choice"
    } else {
        "general (non-free-choice: conflicts and synchronization interleave)"
    };
    out.push(lints::STRUCTURAL_CLASS.at(
        loc.clone(),
        format!(
            "structural class: {class}; {} place(s), {} transition(s)",
            net.n_places(),
            net.n_transitions()
        ),
    ));
}

/// Deadlock and dead-transition detection under the bounded exploration
/// budget. Structurally dead transitions are reported regardless of the
/// budget (the fixpoint is exact about them); behavioral verdicts only when
/// exploration completed.
fn dead_and_deadlock_pass(net: &PetriNet, loc: &Location, out: &mut Vec<Diagnostic>) {
    let structurally_dead = structurally_dead_transitions(net);
    if !structurally_dead.is_empty() {
        let names = name_list(
            structurally_dead
                .iter()
                .map(|&t| net.transition_name(t).to_owned()),
        );
        out.push(
            lints::DEAD_TRANSITION
                .at(
                    loc.clone().with_field(names),
                    "structurally dead: an input place can never be marked by any \
                     firing sequence, so the transition never fires under any timing",
                )
                .with_help("add a producer arc or an initial token on the starved input place"),
        );
    }
    match explore(net, CHECK_REACH_OPTIONS) {
        Ok(graph) => {
            // Complete graph: behavioral verdicts are exact.
            let dead_markings: Vec<usize> = (0..graph.len())
                .filter(|&i| net.enabled_transitions(&graph.markings[i]).is_empty())
                .collect();
            if let Some(&i) = dead_markings.first() {
                let m = &graph.markings[i];
                let why = explain_dead_marking(net, m);
                let marking: Vec<String> = net
                    .places()
                    .filter(|&p| m.tokens(p) > 0)
                    .map(|p| format!("{}={}", net.place_name(p), m.tokens(p)))
                    .collect();
                let mut msg = format!(
                    "{} of {} reachable marking(s) enable no transition; first dead \
                     marking: {{{}}}",
                    dead_markings.len(),
                    graph.len(),
                    marking.join(", ")
                );
                if !why.empty_siphon.is_empty() {
                    msg.push_str(&format!(
                        "; empty siphon {{{}}} can never be re-marked",
                        name_list(
                            why.empty_siphon
                                .iter()
                                .map(|&p| net.place_name(p).to_owned())
                        )
                    ));
                }
                if !why.inhibitor_blocked.is_empty() {
                    msg.push_str(&format!(
                        "; inhibitor arcs alone block {{{}}}",
                        name_list(
                            why.inhibitor_blocked
                                .iter()
                                .map(|&t| net.transition_name(t).to_owned())
                        )
                    ));
                }
                let mut d = lints::NET_DEADLOCK.at(loc.clone(), msg);
                if why.is_inhibitor_induced() {
                    d = d.with_help(
                        "the deadlock is purely inhibitor-induced: every input arc is \
                         satisfied, only inhibitor thresholds hold transitions back — \
                         raise the threshold or drain the inhibiting place",
                    );
                }
                out.push(d);
            }
            let behaviorally_dead: Vec<String> = dead_transitions(net, &graph)
                .into_iter()
                .filter(|t| !structurally_dead.contains(t))
                .map(|t| net.transition_name(t).to_owned())
                .collect();
            if !behaviorally_dead.is_empty() {
                out.push(lints::DEAD_TRANSITION.at(
                    loc.clone().with_field(name_list(behaviorally_dead)),
                    format!(
                        "fires on no edge of the complete {}-marking reachability \
                         graph: unreachable under the net's priorities and guards",
                        graph.len()
                    ),
                ));
            }
        }
        Err(PetriError::Unbounded { place, bound }) => {
            out.push(lints::REACHABILITY_CAPPED.at(
                loc.clone().with_field(place.clone()),
                format!(
                    "place `{place}` exceeded {bound} token(s) during exploration — \
                     the net is unbounded there (expected for the EDSPN's open job \
                     buffer); deadlock and liveness verdicts limited to the explored \
                     prefix"
                ),
            ));
        }
        Err(PetriError::TooManyMarkings { limit }) => {
            out.push(lints::REACHABILITY_CAPPED.at(
                loc.clone(),
                format!(
                    "state space exceeds {limit} markings; deadlock and liveness \
                     verdicts limited to the explored prefix"
                ),
            ));
        }
        Err(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use wsnem_petri::NetBuilder;
    use wsnem_scenario::{builtin, gen, FieldSpec, GenField, GenMethod, GenSpec};

    #[test]
    fn memo_matches_unmemoized_passes_on_builtins_and_lhs_fleets() {
        let field = |field, min, max| FieldSpec {
            field,
            min,
            max,
            points: None,
        };
        // One thread per builtin: the unmemoized reference proofs dominate.
        std::thread::scope(|scope| {
            for base in builtin::all() {
                scope.spawn(move || {
                    let spec = GenSpec {
                        method: GenMethod::LatinHypercube,
                        count: 256,
                        seed: 11,
                        prefix: base.name.clone(),
                        fields: vec![
                            field(GenField::Lambda, 0.05, 0.6),
                            field(GenField::ServiceMean, 0.01, 0.1),
                        ],
                    };
                    let fleet = gen::generate(&base, &spec).expect("lhs fleet");
                    assert_eq!(fleet.len(), 256);
                    for s in std::iter::once(&base).chain(&fleet) {
                        let net = scenario_net(s).expect("builtin-derived nets build");
                        let loc = Location::scenario(&s.name).with_file(format!("{}.toml", s.name));
                        assert_eq!(
                            check_net(&net, loc.clone()),
                            prove(&net, &loc),
                            "{}",
                            s.name
                        );
                    }
                });
            }
        });
    }

    /// A small net exercising every key component, optionally mutated in one.
    fn keyed_net(mutation: &str) -> PetriNet {
        let mut b = NetBuilder::new();
        let idle = b.place(
            if mutation == "name" {
                "KeyIdleRenamed"
            } else {
                "KeyIdle"
            },
            if mutation == "marking" { 2 } else { 1 },
        );
        let busy = b.place("KeyBusy", 0);
        let rate = if mutation == "rate" { 7.5 } else { 2.0 };
        let start = b.exponential("key_start", rate);
        let finish = b.immediate(
            "key_finish",
            if mutation == "priority" { 3 } else { 1 },
            1.0,
        );
        b.input_arc(idle, start, 1);
        b.output_arc(start, busy, if mutation == "weight" { 2 } else { 1 });
        b.input_arc(busy, finish, 1);
        b.output_arc(finish, idle, 1);
        if mutation == "inhibitor" {
            b.inhibitor_arc(busy, start, 1);
        }
        b.build().expect("valid net")
    }

    #[test]
    fn memo_keys_on_untimed_structure_only() {
        let base = keyed_net("");
        let loc = Location::scenario("keyed");
        assert_eq!(check_net(&base, loc.clone()), prove(&base, &loc));
        // A rate is not structure: the variant shares the proven entry.
        assert_eq!(keyed_net("rate").structure_key(), base.structure_key());
        // Every structural mutation misses the memo, and its own proof
        // then matches the unmemoized passes.
        for mutation in ["name", "weight", "inhibitor", "priority", "marking"] {
            let net = keyed_net(mutation);
            let key = net.structure_key();
            assert_ne!(key, base.structure_key(), "{mutation}");
            assert!(memo_lookup(&key).is_none(), "{mutation} hit the memo");
            assert_eq!(
                check_net(&net, loc.clone()),
                prove(&net, &loc),
                "{mutation}"
            );
        }
    }

    #[test]
    fn every_builtin_edspn_is_clean() {
        for s in builtin::all() {
            let diags = run(&s);
            let bad: Vec<&Diagnostic> = diags
                .iter()
                .filter(|d| d.severity >= Severity::Warning)
                .collect();
            assert!(bad.is_empty(), "{}: {bad:?}", s.name);
            // The EDSPN's job buffer is open, so exploration must cap out as
            // an informational finding, never an error.
            assert!(
                diags.iter().any(|d| d.code == "I003"),
                "{}: {diags:?}",
                s.name
            );
        }
    }

    #[test]
    fn inhibitor_frozen_net_reports_e007_with_witness() {
        let mut b = NetBuilder::new();
        let a = b.place("A", 2);
        let bb = b.place("B", 0);
        let t = b.exponential("t", 1.0);
        b.input_arc(a, t, 1);
        b.output_arc(t, bb, 1);
        b.inhibitor_arc(bb, t, 1);
        let net = b.build().expect("valid net");
        let diags = check_net(&net, Location::default());
        let hit = diags
            .iter()
            .find(|d| d.code == "E007")
            .expect("deadlock must be found");
        assert!(hit.message.contains("inhibitor"), "{hit:?}");
    }

    #[test]
    fn starved_transition_reports_e008() {
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let never = b.place("Never", 0);
        let live = b.exponential("live", 1.0);
        b.input_arc(p0, live, 1);
        b.output_arc(live, p1, 1);
        let back = b.exponential("back", 1.0);
        b.input_arc(p1, back, 1);
        b.output_arc(back, p0, 1);
        let dead = b.exponential("dead", 1.0);
        b.input_arc(never, dead, 1);
        b.output_arc(dead, p0, 1);
        let net = b.build().expect("valid net");
        let diags = check_net(&net, Location::default());
        let hit = diags
            .iter()
            .find(|d| d.code == "E008")
            .expect("dead transition must be found");
        assert_eq!(hit.location.field.as_deref(), Some("dead"));
        // The live cycle keeps the net deadlock-free.
        assert!(diags.iter().all(|d| d.code != "E007"), "{diags:?}");
    }
}
