//! BA⋆ protocol parameters (the consensus-relevant subset of Figure 4).

/// Microseconds since the start of the simulation (or UNIX epoch, for a
/// real deployment). All protocol timing uses this unit.
pub type Micros = u64;

/// One second in [`Micros`].
pub const SECOND: Micros = 1_000_000;

/// Vote threshold fraction per step (T_step; Figure 4: 68.5%).
pub const T_STEP: f64 = 0.685;

/// Vote threshold fraction for the final step (T_final; Figure 4: 74%).
pub const T_FINAL: f64 = 0.74;

/// Parameters governing one execution of BA⋆.
#[derive(Clone, Copy, Debug)]
pub struct BaParams {
    /// Expected committee size per step (τ_step; paper: 2000).
    pub tau_step: f64,
    /// Expected committee size for the final step (τ_final; paper: 10000).
    pub tau_final: f64,
    /// Maximum BinaryBA⋆ steps before hanging (MaxSteps; paper: 150).
    pub max_steps: u32,
    /// Timeout for one BA⋆ step (λ_step; paper: 20 s).
    pub lambda_step: Micros,
    /// Timeout for receiving a block (λ_block; paper: 1 min); the first
    /// reduction step waits λ_block + λ_step because other users may still
    /// be waiting for block proposals (Algorithm 7).
    pub lambda_block: Micros,
    /// Test-only: disable §8.2's consecutive-timeout doubling of λ_step
    /// (and the node layer's λ_stepvar doubling). Production is always
    /// `false`; the schedule-space fuzzer flips it to prove its oracle
    /// catches the resulting liveness regressions.
    pub disable_backoff: bool,
}

impl BaParams {
    /// The paper's production parameters (Figure 4).
    pub fn paper() -> BaParams {
        BaParams {
            tau_step: 2000.0,
            tau_final: 10_000.0,
            max_steps: 150,
            lambda_step: 20 * SECOND,
            lambda_block: 60 * SECOND,
            disable_backoff: false,
        }
    }

    /// The number of votes needed to conclude a non-final step: > T·τ.
    pub fn step_vote_threshold(&self) -> f64 {
        T_STEP * self.tau_step
    }

    /// The number of votes needed to conclude the final step.
    pub fn final_vote_threshold(&self) -> f64 {
        T_FINAL * self.tau_final
    }

    /// τ for a given step (the final step uses the larger committee).
    pub fn tau_for(&self, is_final: bool) -> f64 {
        if is_final {
            self.tau_final
        } else {
            self.tau_step
        }
    }

    /// The vote threshold for a given step.
    pub fn threshold_for(&self, is_final: bool) -> f64 {
        if is_final {
            self.final_vote_threshold()
        } else {
            self.step_vote_threshold()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_match_figure4() {
        let p = BaParams::paper();
        assert_eq!(p.tau_step, 2000.0);
        assert_eq!(p.tau_final, 10_000.0);
        assert_eq!(p.max_steps, 150);
        assert_eq!(p.lambda_step, 20 * SECOND);
        assert_eq!(p.lambda_block, 60 * SECOND);
    }

    #[test]
    fn thresholds_are_supermajorities() {
        let p = BaParams::paper();
        assert!(p.step_vote_threshold() > p.tau_step * 2.0 / 3.0);
        assert!(p.final_vote_threshold() > p.tau_final * 2.0 / 3.0);
        assert_eq!(p.tau_for(true), p.tau_final);
        assert_eq!(p.tau_for(false), p.tau_step);
        assert!(p.threshold_for(true) > p.threshold_for(false));
    }
}
