//! Erlang-phase CTMC approximation of the CPU's deterministic delays.
//!
//! The paper closes (§6) wishing for "an effective method of modeling
//! constant delays in Markov chains". The classical answer is phase-type
//! expansion: replace the constant Power-Up Delay `D` by an Erlang-`k` stage
//! chain (mean `D`, variance `D²/k`) and the constant idle timeout `T` by an
//! Erlang-`m` stage chain. As `k, m → ∞` the CTMC converges to the true
//! semantics; the ablation experiment (DESIGN.md E7) measures that
//! convergence against the DES ground truth.
//!
//! State space (truncated at `max_jobs` jobs):
//!
//! * `Standby` — 1 state
//! * `PowerUp(phase j, q jobs)` — `k × max_jobs` states (q ≥ 1)
//! * `Active(q jobs)` — `max_jobs` states (q ≥ 1)
//! * `Idle(timer phase i)` — `m` states (q = 0)

use wsnem_energy::StateFractions;

use crate::ctmc::{Ctmc, CtmcBuilder};
use crate::error::MarkovError;

/// Builder/descriptor for the phase-expanded CPU chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCpuChain {
    /// Arrival rate λ.
    pub lambda: f64,
    /// Service rate μ.
    pub mu: f64,
    /// Power Down Threshold `T` (seconds).
    pub t_threshold: f64,
    /// Power Up Delay `D` (seconds).
    pub d_delay: f64,
    /// Erlang phases for the power-up delay (`k ≥ 1`).
    pub k_up: u32,
    /// Erlang phases for the idle timeout (`m ≥ 1`).
    pub m_down: u32,
    /// Queue truncation: maximum jobs in system.
    pub max_jobs: u32,
}

impl PhaseCpuChain {
    /// Validated constructor. Picks a queue truncation adequate for the
    /// offered load and power-up backlog if `max_jobs` is 0.
    pub fn new(
        lambda: f64,
        mu: f64,
        t_threshold: f64,
        d_delay: f64,
        k_up: u32,
        m_down: u32,
        max_jobs: u32,
    ) -> Result<Self, MarkovError> {
        if !(lambda > 0.0) || !lambda.is_finite() {
            return Err(MarkovError::InvalidParameter {
                what: "lambda",
                constraint: "> 0 and finite",
                value: lambda,
            });
        }
        if !(mu > 0.0) || !mu.is_finite() {
            return Err(MarkovError::InvalidParameter {
                what: "mu",
                constraint: "> 0 and finite",
                value: mu,
            });
        }
        if lambda / mu >= 1.0 {
            return Err(MarkovError::Unstable { rho: lambda / mu });
        }
        if !(t_threshold > 0.0) || !t_threshold.is_finite() {
            return Err(MarkovError::InvalidParameter {
                what: "t_threshold",
                constraint: "> 0 and finite (use M/M/1 for T = 0)",
                value: t_threshold,
            });
        }
        if !(d_delay > 0.0) || !d_delay.is_finite() {
            return Err(MarkovError::InvalidParameter {
                what: "d_delay",
                constraint: "> 0 and finite",
                value: d_delay,
            });
        }
        if k_up == 0 || m_down == 0 {
            return Err(MarkovError::InvalidParameter {
                what: "phases",
                constraint: ">= 1",
                value: 0.0,
            });
        }
        let max_jobs = if max_jobs == 0 {
            // Backlog during power-up ≈ λD; add generous queueing headroom.
            (20.0 + 6.0 * lambda * d_delay + 10.0 * lambda / mu).ceil() as u32
        } else {
            max_jobs
        };
        Ok(Self {
            lambda,
            mu,
            t_threshold,
            d_delay,
            k_up,
            m_down,
            max_jobs,
        })
    }

    /// Total CTMC states.
    pub fn n_states(&self) -> usize {
        let q = self.max_jobs as usize;
        1 + self.k_up as usize * q + q + self.m_down as usize
    }

    // State indexing -------------------------------------------------------
    // 0                                  : Standby
    // 1 + j*Q + (q-1), j<k, 1<=q<=Q      : PowerUp(phase j, q jobs)
    // 1 + k*Q + (q-1), 1<=q<=Q           : Active(q jobs)
    // 1 + k*Q + Q + i, i<m               : Idle(timer phase i)

    fn idx_standby(&self) -> usize {
        0
    }

    fn idx_powerup(&self, phase: u32, q: u32) -> usize {
        debug_assert!(phase < self.k_up && q >= 1 && q <= self.max_jobs);
        1 + phase as usize * self.max_jobs as usize + (q as usize - 1)
    }

    fn idx_active(&self, q: u32) -> usize {
        debug_assert!(q >= 1 && q <= self.max_jobs);
        1 + self.k_up as usize * self.max_jobs as usize + (q as usize - 1)
    }

    fn idx_idle(&self, phase: u32) -> usize {
        debug_assert!(phase < self.m_down);
        1 + self.k_up as usize * self.max_jobs as usize + self.max_jobs as usize + phase as usize
    }

    /// Construct the CTMC generator.
    pub fn build(&self) -> Result<Ctmc, MarkovError> {
        let lam = self.lambda;
        let mu = self.mu;
        let nu_up = self.k_up as f64 / self.d_delay; // per-phase power-up rate
        let nu_dn = self.m_down as f64 / self.t_threshold; // per-phase timer rate
        let q_max = self.max_jobs;

        let mut b = CtmcBuilder::new(self.n_states());
        // Standby --λ--> PowerUp(0, 1).
        b.rate(self.idx_standby(), self.idx_powerup(0, 1), lam)?;

        for j in 0..self.k_up {
            for q in 1..=q_max {
                let here = self.idx_powerup(j, q);
                // Arrivals accumulate during power-up (truncated at Q).
                if q < q_max {
                    b.rate(here, self.idx_powerup(j, q + 1), lam)?;
                }
                // Phase advance.
                if j + 1 < self.k_up {
                    b.rate(here, self.idx_powerup(j + 1, q), nu_up)?;
                } else {
                    b.rate(here, self.idx_active(q), nu_up)?;
                }
            }
        }

        for q in 1..=q_max {
            let here = self.idx_active(q);
            if q < q_max {
                b.rate(here, self.idx_active(q + 1), lam)?;
            }
            if q > 1 {
                b.rate(here, self.idx_active(q - 1), mu)?;
            } else {
                b.rate(here, self.idx_idle(0), mu)?;
            }
        }

        for i in 0..self.m_down {
            let here = self.idx_idle(i);
            // An arrival aborts the idle timer and starts service at once.
            b.rate(here, self.idx_active(1), lam)?;
            if i + 1 < self.m_down {
                b.rate(here, self.idx_idle(i + 1), nu_dn)?;
            } else {
                b.rate(here, self.idx_standby(), nu_dn)?;
            }
        }
        b.build()
    }

    /// The stationary distribution, solved level by level in O(k·Q + m)
    /// without building the generator.
    ///
    /// Every state's probability follows from the balance equations in one
    /// forward sweep, anchored at the first idle phase `I(0)`:
    ///
    /// * idle phases: `I(i) = rⁱ·I(0)` with `r = ν_dn/(λ + ν_dn)`, and
    ///   standby `S = I(m−1)·ν_dn/λ`;
    /// * power-up phases, forward in `j` then `q`:
    ///   `P(j,q) = [P(j,q−1)·λ + P(j−1,q)·ν_up + [j=0,q=1]·S·λ] / (λ·[q<Q] + ν_up)`;
    /// * active levels: `A(1) = I(0)·(λ + ν_dn)/μ`, then the flow balance
    ///   across the cut between levels `q` and `q+1`,
    ///   `A(q+1) = [A(q)·λ + Σ_{q'>q} P(k−1,q')·ν_up] / μ`.
    ///
    /// Every term is non-negative, so nothing cancels. The standby/power-up
    /// block and the idle/active block are swept at separate scales (`S = 1`
    /// and `I(0) = 1`) and joined by the ratio `S/I(0)`, taken in log space,
    /// so `rᵐ⁻¹` cannot underflow the larger block; the smaller one
    /// underflows only where its true probability is below `f64`'s range.
    /// [`PhaseCpuChain::build`] plus a dense solve is the test oracle.
    pub fn stationary(&self) -> Result<PhaseStationary, MarkovError> {
        if self.k_up == 0 || self.m_down == 0 || self.max_jobs == 0 {
            return Err(MarkovError::InvalidParameter {
                what: "phases / max_jobs",
                constraint: ">= 1",
                value: 0.0,
            });
        }
        let lam = self.lambda;
        let mu = self.mu;
        let nu_up = self.k_up as f64 / self.d_delay;
        let nu_dn = self.m_down as f64 / self.t_threshold;
        let q_max = self.max_jobs;

        // ln(S / I(0)) = (m−1)·ln r + ln(ν_dn/λ), with ln r = −ln(1 + λ/ν_dn).
        let log_ratio = -f64::from(self.m_down - 1) * (lam / nu_dn).ln_1p() + (nu_dn / lam).ln();
        let (warm, cold) = if log_ratio <= 0.0 {
            (1.0, log_ratio.exp())
        } else {
            ((-log_ratio).exp(), 1.0)
        };

        let mut pi = vec![0.0; self.n_states()];
        pi[self.idx_standby()] = cold;
        let r = nu_dn / (lam + nu_dn);
        let mut idle = warm;
        for i in 0..self.m_down {
            pi[self.idx_idle(i)] = idle;
            idle *= r;
        }
        for j in 0..self.k_up {
            for q in 1..=q_max {
                let mut inflow = if q > 1 {
                    pi[self.idx_powerup(j, q - 1)] * lam
                } else if j == 0 {
                    cold * lam
                } else {
                    0.0
                };
                if j > 0 {
                    inflow += pi[self.idx_powerup(j - 1, q)] * nu_up;
                }
                let outflow = if q < q_max { lam + nu_up } else { nu_up };
                pi[self.idx_powerup(j, q)] = inflow / outflow;
            }
        }
        // Park Σ_{q'>q} P(k−1,q') in A(q)'s slot (summed from the top, so
        // no subtraction), then overwrite it with A(q) on the way up.
        let mut tail = 0.0;
        for q in (1..=q_max).rev() {
            pi[self.idx_active(q)] = tail;
            tail += pi[self.idx_powerup(self.k_up - 1, q)];
        }
        let mut active = warm * (lam + nu_dn) / mu;
        for q in 1..=q_max {
            let slot = self.idx_active(q);
            let tail = pi[slot];
            pi[slot] = active;
            active = (active * lam + tail * nu_up) / mu;
        }

        let total: f64 = pi.iter().sum();
        for p in &mut pi {
            *p /= total;
        }
        Ok(PhaseStationary { chain: *self, pi })
    }

    /// Stationary four-state occupancy fractions (a view over
    /// [`PhaseCpuChain::stationary`]).
    pub fn fractions(&self) -> Result<StateFractions, MarkovError> {
        Ok(self.stationary()?.fractions())
    }

    /// Occupancy fractions at time `t`, starting cold (Standby, empty) —
    /// the transient view of "how long until the percentages stabilize"
    /// (paper §2), computed analytically by uniformization instead of by
    /// long simulation.
    pub fn transient_fractions(&self, t: f64, tol: f64) -> Result<StateFractions, MarkovError> {
        let ctmc = self.build()?;
        let mut p0 = vec![0.0; self.n_states()];
        p0[self.idx_standby()] = 1.0;
        let pi = ctmc.transient(&p0, t, tol)?;
        Ok(self.fold(&pi))
    }

    /// Fold a distribution over chain states into the four-state occupancy.
    fn fold(&self, pi: &[f64]) -> StateFractions {
        let standby = pi[self.idx_standby()];
        let mut powerup = 0.0;
        let mut active = 0.0;
        let mut idle = 0.0;
        for j in 0..self.k_up {
            for q in 1..=self.max_jobs {
                powerup += pi[self.idx_powerup(j, q)];
            }
        }
        for q in 1..=self.max_jobs {
            active += pi[self.idx_active(q)];
        }
        for i in 0..self.m_down {
            idle += pi[self.idx_idle(i)];
        }
        let total = standby + powerup + active + idle;
        StateFractions::new(
            standby / total,
            powerup / total,
            idle / total,
            active / total,
        )
    }

    /// Mean number of jobs in the system under the stationary distribution
    /// (a view over [`PhaseCpuChain::stationary`]).
    pub fn mean_jobs(&self) -> Result<f64, MarkovError> {
        Ok(self.stationary()?.mean_jobs())
    }
}

/// The stationary distribution of a [`PhaseCpuChain`], indexed like the
/// states of [`PhaseCpuChain::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStationary {
    chain: PhaseCpuChain,
    pi: Vec<f64>,
}

impl PhaseStationary {
    /// Per-state probabilities (sum to 1).
    pub fn probabilities(&self) -> &[f64] {
        &self.pi
    }

    /// Folded into the four-state occupancy fractions.
    pub fn fractions(&self) -> StateFractions {
        self.chain.fold(&self.pi)
    }

    /// Mean number of jobs in the system.
    pub fn mean_jobs(&self) -> f64 {
        let c = &self.chain;
        let mut l = 0.0;
        for j in 0..c.k_up {
            for q in 1..=c.max_jobs {
                l += q as f64 * self.pi[c.idx_powerup(j, q)];
            }
        }
        for q in 1..=c.max_jobs {
            l += q as f64 * self.pi[c.idx_active(q)];
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(t: f64, d: f64, k: u32, m: u32) -> PhaseCpuChain {
        PhaseCpuChain::new(1.0, 10.0, t, d, k, m, 0).unwrap()
    }

    #[test]
    fn validation() {
        assert!(PhaseCpuChain::new(0.0, 1.0, 1.0, 1.0, 1, 1, 0).is_err());
        assert!(PhaseCpuChain::new(1.0, 1.0, 1.0, 1.0, 1, 1, 0).is_err());
        assert!(PhaseCpuChain::new(1.0, 10.0, 0.0, 1.0, 1, 1, 0).is_err());
        assert!(PhaseCpuChain::new(1.0, 10.0, 1.0, 0.0, 1, 1, 0).is_err());
        assert!(PhaseCpuChain::new(1.0, 10.0, 1.0, 1.0, 0, 1, 0).is_err());
        assert!(PhaseCpuChain::new(1.0, 10.0, 1.0, 1.0, 1, 0, 0).is_err());
        assert!(chain(0.5, 0.001, 1, 1).n_states() > 3);
    }

    #[test]
    fn fractions_normalize() {
        for (k, m) in [(1, 1), (2, 2), (4, 4), (8, 8)] {
            let f = chain(0.5, 0.3, k, m).fractions().unwrap();
            assert!(f.is_normalized(1e-9), "k={k} m={m}: {f:?}");
        }
    }

    #[test]
    fn utilization_close_to_rho() {
        // Unlike the supplementary-variable approximation, the phase chain
        // keeps utilization near ρ even for large D (all jobs are served).
        let f = chain(0.5, 10.0, 8, 4).fractions().unwrap();
        assert!(
            (f.active - 0.1).abs() < 0.02,
            "active = {} should be near ρ = 0.1",
            f.active
        );
        assert!(f.powerup > 0.2, "large D → substantial power-up share");
    }

    #[test]
    fn more_phases_tighten_the_idle_timer() {
        // With k=m=1 the timer is exponential (high variance → some very
        // short idle periods power down too early). More phases → the timer
        // behaves closer to the constant T.
        let f1 = chain(0.5, 0.001, 1, 1).fractions().unwrap();
        let f8 = chain(0.5, 0.001, 1, 8).fractions().unwrap();
        let f32 = chain(0.5, 0.001, 1, 32).fractions().unwrap();
        // Reference: supplementary-variable model is exact at D→0.
        let exact = crate::supplementary::SupplementaryVariableModel::new(1.0, 10.0, 0.5, 0.001)
            .unwrap()
            .fractions();
        let e1 = (f1.idle - exact.idle).abs();
        let e8 = (f8.idle - exact.idle).abs();
        let e32 = (f32.idle - exact.idle).abs();
        assert!(e8 < e1, "8 phases ({e8}) should beat 1 phase ({e1})");
        assert!(
            e32 < e8 * 1.5,
            "32 phases ({e32}) should not regress vs 8 ({e8})"
        );
    }

    #[test]
    fn mean_jobs_reasonable() {
        // D small → behaves like M/M/1-with-vacations; L modest.
        let l = chain(0.5, 0.001, 2, 2).mean_jobs().unwrap();
        assert!(l > 0.0 && l < 2.0, "L = {l}");
        // D = 10 → ~λD jobs pile up during power-up.
        let l_big = chain(0.5, 10.0, 4, 2).mean_jobs().unwrap();
        assert!(l_big > 1.0, "L = {l_big}");
    }

    #[test]
    fn transient_starts_cold_and_reaches_steady_state() {
        let c = chain(0.5, 0.3, 2, 2);
        // t = 0: all mass in standby.
        let f0 = c.transient_fractions(0.0, 1e-9).unwrap();
        assert!((f0.standby - 1.0).abs() < 1e-9, "{f0:?}");
        // Short t: still mostly standby (first arrival ~Exp(1)).
        let f_short = c.transient_fractions(0.05, 1e-9).unwrap();
        assert!(f_short.standby > 0.9);
        // Long t: matches the stationary solution.
        let f_inf = c.transient_fractions(500.0, 1e-9).unwrap();
        let stat = c.fractions().unwrap();
        assert!(
            f_inf.mean_abs_delta_pct(&stat) < 0.1,
            "{f_inf:?} vs {stat:?}"
        );
        // Monotone loss of standby mass early on.
        let f1 = c.transient_fractions(1.0, 1e-9).unwrap();
        let f5 = c.transient_fractions(5.0, 1e-9).unwrap();
        assert!(f0.standby >= f_short.standby && f_short.standby >= f1.standby);
        assert!(f1.standby >= f5.standby - 0.05);
    }

    #[test]
    fn truncation_override_respected() {
        let c = PhaseCpuChain::new(1.0, 10.0, 0.5, 0.001, 2, 2, 7).unwrap();
        assert_eq!(c.max_jobs, 7);
        assert_eq!(c.n_states(), 1 + 2 * 7 + 7 + 2);
        let f = c.fractions().unwrap();
        assert!(f.is_normalized(1e-9));
    }
}
