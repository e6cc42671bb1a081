//! Softmax, log-softmax and the cross-entropy gradient used by both the
//! behaviour-cloning phase and the REINFORCE update.

/// Numerically stable softmax over a 1-D slice.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Numerically stable log-softmax over a 1-D slice.
pub fn log_softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let log_sum: f64 = logits.iter().map(|&v| (v - max).exp()).sum::<f64>().ln() + max;
    logits.iter().map(|&v| v - log_sum).collect()
}

/// Gradient of `-coeff · log softmax(logits)[target]` with respect to the
/// logits: `coeff · (softmax(logits) - onehot(target))`.
///
/// With `coeff = 1` this is the ordinary cross-entropy gradient (behaviour
/// cloning); with `coeff = return` it is the REINFORCE policy-gradient term.
///
/// # Panics
///
/// Panics if `target` is out of range.
pub fn cross_entropy_grad(logits: &[f64], target: usize, coeff: f64) -> Vec<f64> {
    assert!(target < logits.len(), "target index out of range");
    let mut grad = softmax(logits);
    grad[target] -= 1.0;
    for g in &mut grad {
        *g *= coeff;
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_is_ordered() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let logits = [0.5, -1.0, 2.0, 0.0];
        let ls = log_softmax(&logits);
        let p = softmax(&logits);
        for (a, b) in ls.iter().zip(&p) {
            assert!((a - b.ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn cross_entropy_grad_finite_difference() {
        let logits = [0.2, -0.3, 0.7, 0.1, -0.5];
        let target = 2;
        let coeff = 1.7;
        let grad = cross_entropy_grad(&logits, target, coeff);
        let loss = |l: &[f64]| -coeff * log_softmax(l)[target];
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut lp = logits;
            lp[i] += eps;
            let mut lm = logits;
            lm[i] -= eps;
            let numeric = (loss(&lp) - loss(&lm)) / (2.0 * eps);
            assert!((numeric - grad[i]).abs() < 1e-6);
        }
    }
}
