//! Oracle battery for the level-by-level Erlang-phase solve: over a grid of
//! phase counts, truncations, delays, loads and thresholds,
//! `PhaseCpuChain::stationary` must match the generator built by
//! `PhaseCpuChain::build` and solved by dense Gaussian elimination.

#![allow(clippy::disallowed_methods)]

use wsnem_energy::StateFractions;
use wsnem_markov::{mm1k, PhaseCpuChain, SteadyStateMethod};

const PHASES: [u32; 5] = [1, 2, 4, 16, 32];
const MAX_JOBS: [u32; 3] = [1, 2, 0]; // 0 = automatic truncation
const DELAYS: [f64; 3] = [1e-3, 0.3, 10.0];
const RHOS: [f64; 3] = [0.1, 0.5, 0.95];
const THRESHOLDS: [f64; 4] = [1e-3, 0.5, 30.0, 1e4];
const MU: f64 = 1.0;

fn parts(f: &StateFractions) -> [f64; 4] {
    [f.standby, f.powerup, f.idle, f.active]
}

/// Dense-oracle fractions and mean jobs for one chain.
fn oracle(c: &PhaseCpuChain) -> (StateFractions, f64) {
    let pi = c
        .build()
        .unwrap()
        .steady_state(SteadyStateMethod::Dense)
        .unwrap();
    let q = c.max_jobs as usize;
    let k = c.k_up as usize;
    let (mut standby, mut powerup, mut active, mut idle, mut jobs) = (pi[0], 0.0, 0.0, 0.0, 0.0);
    for (i, &p) in pi.iter().enumerate().skip(1) {
        if i <= k * q {
            powerup += p;
            jobs += ((i - 1) % q + 1) as f64 * p;
        } else if i <= k * q + q {
            active += p;
            jobs += (i - k * q) as f64 * p;
        } else {
            idle += p;
        }
    }
    let total = standby + powerup + active + idle;
    standby /= total;
    (
        StateFractions::new(standby, powerup / total, idle / total, active / total),
        jobs,
    )
}

/// Every (m, max_jobs, D, ρ, T) point of the grid for one power-up phase
/// count `k`.
fn sweep(k: u32) {
    let mut cases = 0;
    let mut worst_frac = 0.0f64;
    let mut worst_jobs = 0.0f64;
    for &m in &PHASES {
        for &max_jobs in &MAX_JOBS {
            for &d in &DELAYS {
                for &rho in &RHOS {
                    for &t in &THRESHOLDS {
                        let c = PhaseCpuChain::new(rho * MU, MU, t, d, k, m, max_jobs).unwrap();
                        let fast = c.stationary().unwrap();
                        let (want, want_jobs) = oracle(&c);
                        let got = fast.fractions();
                        let tag = format!("k={k} m={m} Q={} D={d} rho={rho} T={t}", c.max_jobs);
                        assert!(got.is_normalized(1e-12), "{tag}: {got:?}");
                        for (a, b) in parts(&got).iter().zip(parts(&want)) {
                            worst_frac = worst_frac.max((a - b).abs());
                            assert!((a - b).abs() <= 1e-10, "{tag}: {got:?} vs {want:?}");
                        }
                        let rel = (fast.mean_jobs() - want_jobs).abs() / want_jobs;
                        worst_jobs = worst_jobs.max(rel);
                        assert!(rel <= 1e-9, "{tag}: L {} vs {want_jobs}", fast.mean_jobs());
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, PHASES.len() * 3 * 3 * 3 * 4);
    eprintln!(
        "k={k}: {cases} cases, worst |Δfraction| {worst_frac:e}, worst rel ΔL {worst_jobs:e}"
    );
}

#[test]
fn stationary_matches_dense_oracle_k1() {
    sweep(1);
}

#[test]
fn stationary_matches_dense_oracle_k2() {
    sweep(2);
}

#[test]
fn stationary_matches_dense_oracle_k4() {
    sweep(4);
}

#[test]
fn stationary_matches_dense_oracle_k16() {
    sweep(16);
}

#[test]
fn stationary_matches_dense_oracle_k32() {
    sweep(32);
}

#[test]
fn views_agree_with_the_stationary_vector() {
    let c = PhaseCpuChain::new(0.5, 2.0, 0.5, 0.3, 4, 4, 0).unwrap();
    let s = c.stationary().unwrap();
    assert_eq!(c.fractions().unwrap(), s.fractions());
    assert_eq!(c.mean_jobs().unwrap(), s.mean_jobs());
    let total: f64 = s.probabilities().iter().sum();
    assert!((total - 1.0).abs() < 1e-12);
    assert!(s.probabilities().iter().all(|&p| p >= 0.0));
}

#[test]
fn extreme_threshold_stays_finite_and_normalized() {
    // T = 10^6 s: rᵐ⁻¹ is astronomically small, so the standby/power-up
    // block is swept at its own scale and joined in log space.
    let c = PhaseCpuChain::new(0.9, 1.0, 1e6, 1.0, 16, 32, 0).unwrap();
    let s = c.stationary().unwrap();
    assert!(s.probabilities().iter().all(|p| p.is_finite() && *p >= 0.0));
    let f = s.fractions();
    assert!(f.is_normalized(1e-12), "{f:?}");
    assert!(s.mean_jobs().is_finite());
    // The CPU practically never powers down, so the chain is M/M/1/Q.
    let closed = mm1k(0.9, 1.0, c.max_jobs).unwrap();
    assert!(f.standby + f.powerup < 1e-100, "{f:?}");
    assert!((s.mean_jobs() - closed.mean_jobs()).abs() < 1e-9 * closed.mean_jobs());
}
