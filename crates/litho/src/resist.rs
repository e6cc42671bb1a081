//! Resist model: converting aerial intensity to printed material.

/// A constant-threshold resist model with an optional sigmoid softness,
/// calibrated against the intensity scale produced by
/// [`aerial_image`](crate::aerial::aerial_image).
#[derive(Debug, Clone, PartialEq)]
pub struct ResistModel {
    /// Print threshold on the aerial-intensity scale.
    pub threshold: f64,
    /// Sigmoid steepness for [`ResistModel::activation`]; larger is closer
    /// to a hard threshold.
    pub steepness: f64,
}

impl ResistModel {
    /// Creates a resist model.
    ///
    /// # Panics
    ///
    /// Panics if `threshold <= 0` or `steepness <= 0`.
    pub fn new(threshold: f64, steepness: f64) -> Self {
        assert!(threshold > 0.0, "resist threshold must be positive");
        assert!(steepness > 0.0, "resist steepness must be positive");
        Self {
            threshold,
            steepness,
        }
    }

    /// Whether intensity `i` prints (hard threshold).
    pub fn prints(&self, i: f64) -> bool {
        i > self.threshold
    }

    /// Smooth printability in `[0, 1]` (sigmoid around the threshold); used
    /// by the ILT baseline's gradient computation.
    pub fn activation(&self, i: f64) -> f64 {
        1.0 / (1.0 + (-self.steepness * (i - self.threshold)).exp())
    }

    /// Threshold scaled by a dose factor (dose corners scale the effective
    /// exposure, equivalent to dividing the threshold).
    pub fn dosed_threshold(&self, dose: f64) -> f64 {
        assert!(dose > 0.0, "dose factor must be positive");
        self.threshold / dose
    }
}

impl Default for ResistModel {
    /// Default calibrated so that the edge of a large isolated feature under
    /// the default two-kernel optical model prints close to the target edge:
    /// at a straight edge of a wide feature, the convolved amplitude is 0.5,
    /// giving intensity `Σ wᵢ · 0.25 ≈ 0.34`.
    fn default() -> Self {
        Self::new(0.34, 40.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_behaviour() {
        let r = ResistModel::default();
        assert!(r.prints(r.threshold + 0.01));
        assert!(!r.prints(r.threshold - 0.01));
    }

    #[test]
    fn activation_is_monotone_and_bounded() {
        let r = ResistModel::default();
        let lo = r.activation(0.0);
        let mid = r.activation(r.threshold);
        let hi = r.activation(1.0);
        assert!(lo < mid && mid < hi);
        assert!((mid - 0.5).abs() < 1e-9);
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn dose_scales_threshold() {
        let r = ResistModel::default();
        assert!(r.dosed_threshold(1.02) < r.threshold);
        assert!(r.dosed_threshold(0.98) > r.threshold);
    }

    #[test]
    #[should_panic(expected = "dose factor must be positive")]
    fn zero_dose_rejected() {
        let _ = ResistModel::default().dosed_threshold(0.0);
    }
}
