//! Numerically-stable reductions.
//!
//! Section 6 of the paper ("Numerical Stability") describes the Log-Sum-Exp
//! trick used to evaluate the softmax cross-entropy loss without overflow:
//! for a row of margins `m_c = ⟨a, x_c⟩`, `M = max(0, m_1, …, m_{C-1})` and
//! `α = e^{-M} + Σ e^{m_c − M}`, so that `log(1 + Σ e^{m_c}) = M + log α`.
//! These helpers implement exactly that formulation (with the implicit 0
//! margin of the reference class) plus generic log-sum-exp / softmax kernels.

/// Log-sum-exp over the given values *including an implicit extra zero term*:
/// computes `log(1 + Σ exp(v_i))` stably, following the paper's Eq. (9)–(10).
pub fn log1p_sum_exp(values: &[f64]) -> f64 {
    let m = values.iter().fold(0.0_f64, |acc, &v| acc.max(v));
    let alpha: f64 = (-m).exp() + values.iter().map(|&v| (v - m).exp()).sum::<f64>();
    m + alpha.ln()
}

/// Standard log-sum-exp `log(Σ exp(v_i))` without the implicit zero term.
///
/// Returns `f64::NEG_INFINITY` for an empty slice.
pub fn log_sum_exp(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NEG_INFINITY;
    }
    let m = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    let s: f64 = values.iter().map(|&v| (v - m).exp()).sum();
    m + s.ln()
}

/// Writes the softmax probabilities of the `C-1` explicit margins plus the
/// implicit reference class into `probs` (length `values.len()`); the
/// probability of the implicit class is `1 − Σ probs`. Returns the
/// log-partition value `log(1 + Σ exp(v_i))`.
///
/// # Panics
/// Panics if `probs.len() != values.len()`.
pub fn softmax_with_reference(values: &[f64], probs: &mut [f64]) -> f64 {
    assert_eq!(values.len(), probs.len(), "softmax_with_reference: length mismatch");
    probs.copy_from_slice(values);
    softmax_with_reference_in_place(probs)
}

/// [`softmax_with_reference`] overwriting the margins with their
/// probabilities (the same arithmetic, no second buffer).
pub fn softmax_with_reference_in_place(row: &mut [f64]) -> f64 {
    let m = row.iter().fold(0.0_f64, |acc, &v| acc.max(v));
    let mut alpha = (-m).exp();
    for p in row.iter_mut() {
        *p = (*p - m).exp();
        alpha += *p;
    }
    for p in row.iter_mut() {
        *p /= alpha;
    }
    m + alpha.ln()
}

/// In-place softmax over a full set of class scores (no implicit class).
pub fn softmax_in_place(values: &mut [f64]) {
    if values.is_empty() {
        return;
    }
    let m = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut s = 0.0;
    for v in values.iter_mut() {
        *v = (*v - m).exp();
        s += *v;
    }
    for v in values.iter_mut() {
        *v /= s;
    }
}

/// Parallel sum of per-row results of `f` over `0..n`, reduced in the
/// canonical chunk order (bit-identical across thread counts and across the
/// `NADMM_PAR_THRESHOLD` cutover).
pub fn par_sum_over(n: usize, f: impl Fn(usize) -> f64 + Sync + Send) -> f64 {
    rayon::det::fold(
        n,
        crate::vector::REDUCE_CHUNK,
        n >= crate::par_threshold(),
        |s, e| (s..e).map(&f).sum::<f64>(),
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

/// Index of the maximum element; ties broken by the lowest index. Returns
/// `None` for an empty slice.
pub fn argmax(values: &[f64]) -> Option<usize> {
    if values.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > values[best] {
            best = i;
        }
    }
    Some(best)
}

/// Predicted class for a row of `C − 1` margins beside the implicit reference
/// class, whose index is `row.len()` and whose margin is 0. The reference
/// class wins a margin of exactly 0, the lowest index wins among equal
/// positive margins, and a NaN margin never wins.
pub fn argmax_with_reference(row: &[f64]) -> usize {
    let mut best = row.len();
    let mut best_val = 0.0;
    for (c, &m) in row.iter().enumerate() {
        if m > best_val {
            best_val = m;
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log1p_sum_exp_matches_naive_for_small_values() {
        let v: [f64; 3] = [0.1, -0.5, 0.3];
        let naive = (1.0 + v.iter().map(|x| x.exp()).sum::<f64>()).ln();
        assert!((log1p_sum_exp(&v) - naive).abs() < 1e-12);
    }

    #[test]
    fn log1p_sum_exp_does_not_overflow() {
        let v = [1000.0, 999.0];
        let r = log1p_sum_exp(&v);
        assert!(r.is_finite());
        assert!((r - 1000.0).abs() < 1.0);
        let v = [-1000.0, -999.0];
        let r = log1p_sum_exp(&v);
        assert!(r.is_finite());
        assert!(r >= 0.0); // log(1 + small) >= 0
    }

    #[test]
    fn log_sum_exp_edge_cases() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert!((log_sum_exp(&[0.0, 0.0]) - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(log_sum_exp(&[f64::NEG_INFINITY, f64::NEG_INFINITY]).is_infinite());
    }

    #[test]
    fn softmax_with_reference_probabilities_sum_below_one() {
        let v = [2.0, -1.0, 0.5];
        let mut p = [0.0; 3];
        let logz = softmax_with_reference(&v, &mut p);
        assert!(logz.is_finite());
        let sum: f64 = p.iter().sum();
        assert!(sum < 1.0);
        assert!(sum > 0.0);
        // Reference-class probability completes the simplex.
        let p_ref = 1.0 - sum;
        assert!(p_ref > 0.0);
        // Consistency: p_c = exp(v_c) / (1 + sum exp).
        let z = 1.0 + v.iter().map(|x| x.exp()).sum::<f64>();
        for (pc, &vc) in p.iter().zip(&v) {
            assert!((pc - vc.exp() / z).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_with_reference_extreme_margins() {
        let v = [800.0, -800.0];
        let mut p = [0.0; 2];
        let logz = softmax_with_reference(&v, &mut p);
        assert!(logz.is_finite());
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p[0] - 1.0).abs() < 1e-9);
        assert!(p[1] < 1e-9);
    }

    #[test]
    fn softmax_in_place_normalises() {
        let mut v = vec![1.0, 2.0, 3.0];
        softmax_in_place(&mut v);
        let s: f64 = v.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(v[2] > v[1] && v[1] > v[0]);
        let mut empty: Vec<f64> = vec![];
        softmax_in_place(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn par_sum_matches_serial() {
        let n = 10_000;
        let serial: f64 = (0..n).map(|i| (i % 7) as f64).sum();
        let par = par_sum_over(n, |i| (i % 7) as f64);
        assert!((serial - par).abs() < 1e-6);
    }

    #[test]
    fn argmax_with_reference_tie_rules() {
        // The reference class (index = number of margins) wins a margin of
        // exactly 0 of either sign, and everything negative.
        assert_eq!(argmax_with_reference(&[]), 0);
        assert_eq!(argmax_with_reference(&[0.0, -0.0, -1.0]), 3);
        assert_eq!(argmax_with_reference(&[-2.0, f64::NEG_INFINITY]), 2);
        // The lowest index wins among equal positive margins.
        assert_eq!(argmax_with_reference(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax_with_reference(&[f64::MIN_POSITIVE, f64::MIN_POSITIVE]), 0);
        // A NaN margin never wins, wherever it stands.
        assert_eq!(argmax_with_reference(&[f64::NAN, 2.0, f64::NAN, 5.0]), 3);
        assert_eq!(argmax_with_reference(&[f64::NAN, -1.0]), 2);
        assert_eq!(argmax_with_reference(&[f64::NAN, f64::INFINITY]), 1);
    }

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0]), Some(0));
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
    }
}
