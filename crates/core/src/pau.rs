//! Predictive Activation Unit (PAU) — behavioural model of the paper's
//! Figure 7 hardware.
//!
//! One PAU sits on every compute lane. The lane's controller walks the
//! reordered weights; before issuing the MAC at position `p` it probes the
//! PAU with the current partial sum. The PAU asserts `Terminate` when:
//!
//! * **predictive check** — `p` equals the speculative-set length and the
//!   partial sum is below the threshold `Th` (the `Predict` signal is high
//!   for exactly this one probe), or
//! * **sign check** — `p` lies in the trailing negative-weight region and
//!   the partial sum's sign bit is set (a single AND gate in hardware).
//!
//! The same struct drives both the software executor ([`crate::exec`]) and
//! the cycle-level simulator, so software decisions and simulated-hardware
//! decisions agree by construction.

use crate::params::KernelParams;
use crate::reorder::ReorderedKernel;

/// Why a window terminated early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TerminationKind {
    /// Speculative (predictive-mode) termination: partial sum fell below the
    /// threshold after the speculative MACs. May mispredict.
    Predicted,
    /// Exact sign-check termination in the negative-weight region. Never
    /// changes the post-ReLU output.
    SignCheck,
}

/// PAU probe outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PauAction {
    /// Proceed with the next MAC.
    Continue,
    /// Terminate the window now (before the probed MAC executes).
    Terminate(TerminationKind),
}

/// Configuration of one lane's PAU for one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pau {
    /// Threshold compared against the partial sum when `Predict` is high.
    /// Ignored when `spec_len == 0`.
    threshold: f32,
    /// Number of speculative MACs before the predictive check (0 disables
    /// prediction — exact mode).
    spec_len: usize,
    /// Position at which the negative-weight region begins; sign checks run
    /// from here on.
    neg_start: usize,
}

impl Pau {
    /// Exact-mode PAU for a kernel reordered with
    /// [`crate::reorder::sign_reorder`].
    pub fn exact(reordered: &ReorderedKernel) -> Self {
        Self {
            threshold: 0.0,
            spec_len: 0,
            neg_start: reordered.neg_start(),
        }
    }

    /// Predictive-mode PAU for a kernel reordered with
    /// [`crate::reorder::predictive_reorder`] under `params`.
    ///
    /// # Panics
    ///
    /// Panics if `reordered.spec_len() != params.groups`.
    pub fn predictive(reordered: &ReorderedKernel, params: KernelParams) -> Self {
        assert_eq!(
            reordered.spec_len(),
            params.groups,
            "reordering and parameters disagree on the speculative set size"
        );
        Self {
            threshold: params.threshold,
            spec_len: params.groups,
            neg_start: reordered.neg_start(),
        }
    }

    /// The predictive threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The speculative-set length (0 in exact mode).
    pub fn spec_len(&self) -> usize {
        self.spec_len
    }

    /// Start of the sign-checked negative region.
    pub fn neg_start(&self) -> usize {
        self.neg_start
    }

    /// Whether this PAU speculates.
    pub fn is_predictive(&self) -> bool {
        self.spec_len > 0
    }

    /// Probes the PAU before executing the MAC at position `pos`, with the
    /// partial sum accumulated over positions `0..pos`.
    #[inline]
    pub fn probe(&self, pos: usize, partial_sum: f32) -> PauAction {
        if self.spec_len > 0 && pos == self.spec_len && partial_sum < self.threshold {
            return PauAction::Terminate(TerminationKind::Predicted);
        }
        if pos >= self.neg_start && partial_sum < 0.0 {
            return PauAction::Terminate(TerminationKind::SignCheck);
        }
        PauAction::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::{predictive_reorder, sign_reorder};

    #[test]
    fn exact_pau_only_sign_checks_in_negative_region() {
        let w = [0.5, -1.0, 0.25, -0.5];
        let r = sign_reorder(&w);
        let pau = Pau::exact(&r);
        assert!(!pau.is_predictive());
        // Positive region: never terminates, even on a negative partial sum
        // (a negative bias, say).
        assert_eq!(pau.probe(0, -5.0), PauAction::Continue);
        assert_eq!(pau.probe(1, -5.0), PauAction::Continue);
        // Negative region: terminates exactly when the sign bit is set.
        assert_eq!(pau.probe(2, 1.0), PauAction::Continue);
        assert_eq!(
            pau.probe(2, -0.01),
            PauAction::Terminate(TerminationKind::SignCheck)
        );
        assert_eq!(
            pau.probe(3, -2.0),
            PauAction::Terminate(TerminationKind::SignCheck)
        );
    }

    #[test]
    fn predictive_pau_checks_threshold_once() {
        let w = [0.5, -1.0, 0.25, -0.5, 0.1, -0.1];
        let r = predictive_reorder(&w, 2);
        let pau = Pau::predictive(&r, KernelParams::new(0.3, 2));
        assert!(pau.is_predictive());
        // Before the speculative set completes: no predictive check.
        assert_eq!(pau.probe(1, -10.0), PauAction::Continue);
        // At the boundary: below threshold → predicted negative.
        assert_eq!(
            pau.probe(2, 0.29),
            PauAction::Terminate(TerminationKind::Predicted)
        );
        // At or above threshold → continue.
        assert_eq!(pau.probe(2, 0.3), PauAction::Continue);
        assert_eq!(pau.probe(2, 5.0), PauAction::Continue);
    }

    #[test]
    fn predictive_pau_falls_back_to_sign_checks() {
        let w = [0.5, -1.0, 0.25, -0.5, 0.1, -0.1];
        let r = predictive_reorder(&w, 2);
        let pau = Pau::predictive(&r, KernelParams::new(-0.5, 2));
        // Speculation not triggered (partial above Th); in the negative
        // region the sign check still applies.
        assert_eq!(pau.probe(2, 0.0), PauAction::Continue);
        let ns = r.neg_start();
        assert_eq!(
            pau.probe(ns, -0.1),
            PauAction::Terminate(TerminationKind::SignCheck)
        );
        assert_eq!(pau.probe(ns, 0.1), PauAction::Continue);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn predictive_pau_validates_spec_len() {
        let w = [0.5, -1.0, 0.25];
        let r = predictive_reorder(&w, 2);
        let _ = Pau::predictive(&r, KernelParams::new(0.0, 3));
    }
}
