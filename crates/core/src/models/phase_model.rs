//! The Erlang-phase CTMC as a fourth, fully analytic CPU model backend.
//!
//! This is the answer to the paper's closing question ("if an effective
//! method of modeling constant delays in Markov chains can be derived, the
//! Markov model may very well become the modeling method of choice") turned
//! into a first-class [`CpuModel`]: both constant delays are expanded into
//! Erlang-`k` stages and the resulting CTMC is solved exactly. Unlike the
//! supplementary-variable model it stays accurate for large `D`; unlike the
//! simulations it is deterministic and fast (microseconds, no Monte-Carlo
//! noise).
//!
//! The solve never builds the generator: the chain's balance equations are
//! swept level by level ([`PhaseCpuChain::stationary`]) — idle timer phases
//! first, then the power-up phases forward in phase and queue length, then
//! the active levels by flow balance across each cut — in O(k·Q + m) steps
//! with no subtraction. One stationary vector yields both the occupancy
//! fractions and the mean number of jobs.

use std::time::Instant;

use wsnem_markov::PhaseCpuChain;

use crate::backend::{
    require_exponential_service, BackendId, Capabilities, CpuSolver, EvalOptions,
};
use crate::error::CoreError;
use crate::evaluation::{CpuModel, ModelEvaluation};
use crate::params::CpuModelParams;

/// Phase-expanded Markov model of the CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCpuModel {
    params: CpuModelParams,
    phases: u32,
}

impl PhaseCpuModel {
    /// Wrap the shared parameters with the default phase count (16 — below
    /// 0.25 pp error against DES across the paper's sweep, see the E7
    /// ablation).
    pub fn new(params: CpuModelParams) -> Self {
        Self { params, phases: 16 }
    }

    /// Override the Erlang phase count used for both delays.
    pub fn with_phases(mut self, phases: u32) -> Self {
        self.phases = phases;
        self
    }

    /// The parameters.
    pub fn params(&self) -> CpuModelParams {
        self.params
    }

    /// The configured phase count.
    pub fn phases(&self) -> u32 {
        self.phases
    }

    /// The underlying chain descriptor.
    pub fn chain(&self) -> Result<PhaseCpuChain, CoreError> {
        self.params.validate()?;
        Ok(PhaseCpuChain::new(
            self.params.lambda,
            self.params.mu,
            self.params.power_down_threshold,
            self.params.power_up_delay,
            self.phases,
            self.phases,
            0,
        )?)
    }
}

impl CpuModel for PhaseCpuModel {
    fn kind(&self) -> BackendId {
        BackendId::ErlangPhase
    }

    fn evaluate(&self) -> Result<ModelEvaluation, CoreError> {
        let start = Instant::now();
        let stationary = self.chain()?.stationary()?;
        let mean_jobs = stationary.mean_jobs();
        Ok(ModelEvaluation {
            kind: BackendId::ErlangPhase,
            fractions: stationary.fractions(),
            mean_jobs: Some(mean_jobs),
            mean_latency: Some(mean_jobs / self.params.lambda),
            eval_seconds: start.elapsed().as_secs_f64(),
        })
    }
}

/// The registry solver for [`BackendId::ErlangPhase`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ErlangPhaseSolver;

impl CpuSolver for ErlangPhaseSolver {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            id: BackendId::ErlangPhase,
            analytic: true,
            ground_truth: false,
            assumes_poisson: true,
            supports_service_dist: false,
            provides_mean_jobs: true,
            provides_latency: true,
            uses_seed: false,
            requires_positive_delays: true,
            cost_rank: 2,
        }
    }

    fn solve(
        &self,
        params: &CpuModelParams,
        opts: &EvalOptions,
    ) -> Result<ModelEvaluation, CoreError> {
        require_exponential_service(BackendId::ErlangPhase, opts)?;
        PhaseCpuModel::new(opts.apply(*params)).evaluate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::des_model::DesCpuModel;
    use crate::models::markov_model::MarkovCpuModel;

    #[test]
    fn evaluates_and_normalizes() {
        let params = CpuModelParams::paper_defaults();
        let eval = PhaseCpuModel::new(params).evaluate().unwrap();
        assert!(eval.fractions.is_normalized(1e-9));
        assert!(eval.mean_jobs.unwrap() > 0.0);
        assert!(eval.eval_seconds < 1.0);
        let m = PhaseCpuModel::new(params).with_phases(4);
        assert_eq!(m.phases(), 4);
        assert_eq!(m.params().lambda, 1.0);
        assert!(m.chain().is_ok());
    }

    #[test]
    fn accurate_where_supplementary_variables_fail() {
        // D = 10 s: the phase model must stay near the DES truth while the
        // paper's approximation drifts by tens of points.
        let params = CpuModelParams::paper_defaults()
            .with_power_up_delay(10.0)
            .with_replications(8)
            .with_horizon(6000.0)
            .with_warmup(500.0);
        let des = DesCpuModel::new(params).evaluate().unwrap();
        let phase = PhaseCpuModel::new(params).evaluate().unwrap();
        let sv = MarkovCpuModel::new(params).evaluate().unwrap();
        let phase_err = des.fractions.mean_abs_delta_pct(&phase.fractions);
        let sv_err = des.fractions.mean_abs_delta_pct(&sv.fractions);
        assert!(phase_err < 2.0, "phase error {phase_err} pp");
        assert!(
            sv_err > 10.0 * phase_err,
            "sv {sv_err} vs phase {phase_err}"
        );
    }

    #[test]
    fn zero_delay_params_rejected_gracefully() {
        // Phase expansion needs strictly positive delays (documented).
        let params = CpuModelParams::paper_defaults().with_power_up_delay(0.0);
        assert!(PhaseCpuModel::new(params).evaluate().is_err());
    }

    #[test]
    fn more_phases_no_worse() {
        let params = CpuModelParams::paper_defaults()
            .with_power_up_delay(0.5)
            .with_replications(8)
            .with_horizon(6000.0)
            .with_warmup(300.0);
        let des = DesCpuModel::new(params).evaluate().unwrap();
        let e4 = des.fractions.mean_abs_delta_pct(
            &PhaseCpuModel::new(params)
                .with_phases(2)
                .evaluate()
                .unwrap()
                .fractions,
        );
        let e32 = des.fractions.mean_abs_delta_pct(
            &PhaseCpuModel::new(params)
                .with_phases(32)
                .evaluate()
                .unwrap()
                .fractions,
        );
        assert!(e32 < e4 + 0.2, "32 phases ({e32}) vs 2 phases ({e4})");
    }
}
