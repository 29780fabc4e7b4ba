//! # nadmm-objective
//!
//! Objective functions for the Newton-ADMM reproduction.
//!
//! The paper's target problem is `min_x Σ_i f_i(x) + g(x)` with `f_i` the
//! softmax cross-entropy loss of sample `i` (paper §5) and `g(x) = λ‖x‖²/2`.
//! This crate provides:
//!
//! * the [`Objective`] trait — value, gradient and prepared Hessian-vector
//!   products written into caller storage with pooled scratch, every kernel
//!   billed on the objective's device; the allocating `value` / `gradient` /
//!   `value_and_gradient` / `hessian_vec` are provided one-liners over them,
//! * [`SoftmaxCrossEntropy`] — the paper's multiclass loss with the
//!   Log-Sum-Exp stabilisation of §6 (dense or sparse features),
//! * [`BinaryLogistic`] — the two-class special case (HIGGS),
//! * [`RidgeRegression`] and [`Quadratic`] — objectives with closed-form
//!   solutions used heavily by the test-suite,
//! * [`ProximalAugmented`] — the ADMM-augmented local objective
//!   `f_i(x) + ρ/2 ‖z − x + y/ρ‖²` that each worker's Newton solver
//!   minimises (paper Eq. 6a),
//! * [`finite_diff`] — finite-difference oracles used by the tests to verify
//!   every gradient and Hessian-vector product.

pub mod finite_diff;
pub mod logistic;
pub mod proximal;
pub mod quadratic;
pub mod ridge;
pub mod softmax;
pub mod traits;

pub use logistic::BinaryLogistic;
pub use proximal::ProximalAugmented;
pub use quadratic::Quadratic;
pub use ridge::RidgeRegression;
pub use softmax::SoftmaxCrossEntropy;
pub use traits::{HvpState, Objective};

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_data::SyntheticConfig;

    #[test]
    fn crate_level_smoke_test() {
        let (train, _) = SyntheticConfig::mnist_like()
            .with_train_size(30)
            .with_test_size(10)
            .with_num_features(8)
            .generate(1);
        let obj = SoftmaxCrossEntropy::new(&train, 1e-3);
        let x = vec![0.0; obj.dim()];
        assert!(obj.value(&x).is_finite());
        assert_eq!(obj.gradient(&x).len(), obj.dim());
    }
}
