//! The OPC-inspired modulator (Section 3.2 and Figure 4 of the paper).
//!
//! For each segment the modulator converts the signed EPE into a preference
//! vector over the five movements. Five points are sampled evenly from
//! `[0, |EPE|]`, projected through the polynomial `f(x) = k·xⁿ + b` (even
//! `n`, so `f` is flat near zero and grows sharply with |EPE|) and normalised
//! with a softmax. The ordering of the samples is chosen so that the
//! movement that best corrects the error receives the largest preference:
//!
//! * **positive EPE** (printed contour inside the target → under-printing):
//!   outward movements (+1, +2 nm) are preferred;
//! * **negative EPE** (over-printing): inward movements are preferred;
//! * **small EPE**: `f` is nearly constant, so the preferences stay close to
//!   uniform and the policy's own distribution dominates.

use camo_baselines::ACTION_COUNT;
use camo_nn::softmax;

/// The preference-vector modulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Modulator {
    k: f64,
    n: u32,
    b: f64,
}

impl Modulator {
    /// Creates a modulator with projection `f(x) = k·xⁿ + b`.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`, `b < 0`, `n == 0` or `n` is odd.
    pub fn new(k: f64, n: u32, b: f64) -> Self {
        assert!(k > 0.0, "modulator k must be positive");
        assert!(b >= 0.0, "modulator b must be non-negative");
        assert!(
            n > 0 && n.is_multiple_of(2),
            "modulator exponent must be positive and even"
        );
        Self { k, n, b }
    }

    /// The paper's modulator: `f(x) = 0.02·x⁴ + 1`.
    pub fn paper_default() -> Self {
        Self::new(0.02, 4, 1.0)
    }

    /// The projection function `f(x) = k·xⁿ + b`.
    pub fn projection(&self, x: f64) -> f64 {
        self.k * x.powi(self.n as i32) + self.b
    }

    /// The modulated preference vector for the five movements
    /// `[-2, -1, 0, +1, +2]` nm given a signed EPE in nm.
    pub fn preference(&self, epe: f64) -> [f64; ACTION_COUNT] {
        let magnitude = epe.abs();
        // Five evenly spaced samples on [0, |EPE|].
        let samples: Vec<f64> = (0..ACTION_COUNT)
            .map(|i| magnitude * i as f64 / (ACTION_COUNT - 1) as f64)
            .collect();
        // Assign the largest sample to the most corrective movement.
        let mut projected = [0.0; ACTION_COUNT];
        for (i, &x) in samples.iter().enumerate() {
            let idx = if epe >= 0.0 { i } else { ACTION_COUNT - 1 - i };
            projected[idx] = self.projection(x);
        }
        let normalised = softmax(&projected);
        let mut out = [0.0; ACTION_COUNT];
        out.copy_from_slice(&normalised);
        out
    }

    /// Element-wise modulation of a policy distribution: `p̂ ⊙ π`, followed by
    /// renormalisation so the result is again a distribution.
    ///
    /// # Panics
    ///
    /// Panics if `policy` does not have exactly five entries.
    pub fn modulate(&self, epe: f64, policy: &[f64]) -> [f64; ACTION_COUNT] {
        assert_eq!(
            policy.len(),
            ACTION_COUNT,
            "policy distribution must have 5 entries"
        );
        let pref = self.preference(epe);
        let mut combined = [0.0; ACTION_COUNT];
        let mut sum = 0.0;
        for i in 0..ACTION_COUNT {
            combined[i] = pref[i] * policy[i].max(0.0);
            sum += combined[i];
        }
        if sum <= f64::EPSILON {
            return pref;
        }
        for value in &mut combined {
            *value /= sum;
        }
        combined
    }

    /// Ratio between the largest and smallest preference for a given EPE — a
    /// measure of how strongly the modulator biases the decision.
    pub fn sharpness(&self, epe: f64) -> f64 {
        let pref = self.preference(epe);
        let max = pref.iter().cloned().fold(f64::MIN, f64::max);
        let min = pref.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    }
}

impl Default for Modulator {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preference_is_a_distribution() {
        let m = Modulator::paper_default();
        for epe in [-10.0, -2.0, 0.0, 1.5, 8.0] {
            let p = m.preference(epe);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn positive_epe_prefers_outward_movement() {
        let m = Modulator::paper_default();
        let p = m.preference(6.0);
        // Index 4 corresponds to +2 nm (outward).
        assert!(
            p[4] > p[0],
            "outward must beat inward for positive EPE: {p:?}"
        );
        assert_eq!(
            p.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i),
            Some(4)
        );
    }

    #[test]
    fn negative_epe_prefers_inward_movement() {
        let m = Modulator::paper_default();
        let p = m.preference(-6.0);
        assert!(
            p[0] > p[4],
            "inward must beat outward for negative EPE: {p:?}"
        );
    }

    #[test]
    fn small_epe_gives_nearly_uniform_preferences() {
        let m = Modulator::paper_default();
        assert!(m.sharpness(0.0) < 1.0 + 1e-9);
        assert!(m.sharpness(0.5) < 1.05);
        // Large EPE must be sharply biased.
        assert!(m.sharpness(10.0) > 5.0);
        // Sharpness grows monotonically with |EPE|.
        assert!(m.sharpness(4.0) < m.sharpness(8.0));
    }

    #[test]
    fn modulation_reweights_policy() {
        let m = Modulator::paper_default();
        // A policy that prefers "stay" gets pushed outward by a large
        // positive EPE.
        let policy = [0.1, 0.1, 0.6, 0.1, 0.1];
        let modulated = m.modulate(8.0, &policy);
        assert!((modulated.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            modulated[4] > policy[4],
            "outward probability should increase"
        );
        // With zero EPE the policy is essentially unchanged.
        let neutral = m.modulate(0.0, &policy);
        for (a, b) in neutral.iter().zip(&policy) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_policy_falls_back_to_preference() {
        let m = Modulator::paper_default();
        let zeros = [0.0; 5];
        let out = m.modulate(5.0, &zeros);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn projection_matches_formula() {
        let m = Modulator::new(0.02, 4, 1.0);
        assert!((m.projection(0.0) - 1.0).abs() < 1e-12);
        assert!((m.projection(2.0) - (0.02 * 16.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_exponent_rejected() {
        let _ = Modulator::new(0.02, 3, 1.0);
    }
}
