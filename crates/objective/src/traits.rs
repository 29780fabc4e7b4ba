//! The objective-function interface shared by every solver in the workspace.
//!
//! Two families of methods coexist:
//!
//! * **Allocating** (`value`, `gradient`, `hessian_vec`, …) — the ergonomic
//!   API used by tests and one-shot callers; every call returns fresh
//!   storage.
//! * **In-place / workspace** (`value_ws`, `gradient_into`,
//!   `hessian_vec_into`, `prepare_hvp` + `hvp_prepared_into`) — the hot-path
//!   API: results are written into caller-provided slices and all scratch is
//!   acquired from a [`Workspace`] pool, so steady-state solver loops
//!   allocate nothing. Default implementations delegate to the allocating
//!   methods, so existing `Objective` impls keep working; the workspace-aware
//!   objectives (`SoftmaxCrossEntropy`, `Quadratic`, `RidgeRegression`,
//!   `ProximalAugmented`) override them to execute through the
//!   [`nadmm_device::Device`] engine, which also charges the simulated-GPU
//!   cost model per actual kernel launch.

use nadmm_device::{Device, Workspace};

/// Boxed Hessian-vector operator returned by [`Objective::hvp_operator`].
pub type HvpOperator<'a> = Box<dyn Fn(&[f64]) -> Vec<f64> + Send + Sync + 'a>;

/// Opaque per-`x` state for repeated Hessian-vector products, produced by
/// [`Objective::prepare_hvp`] and consumed by [`Objective::hvp_prepared_into`].
///
/// The buffers come from (and return to) a [`Workspace`], and the state
/// itself holds them in a fixed two-slot inline array — no heap shell — so
/// `prepare_hvp` allocates **nothing** once the pool is warm (the
/// zero-allocation proofs in the bench crate depend on this). The
/// interpretation of the buffers and `dims` is private to the objective that
/// created the state.
#[derive(Debug, Default)]
pub struct HvpState {
    /// Pooled buffers owned by this state (returned via
    /// [`Objective::release_hvp`]); at most two, held inline.
    bufs: [Option<Vec<f64>>; 2],
    /// Implementation-defined shape information.
    pub dims: (usize, usize),
}

impl HvpState {
    /// A state with no pooled buffers (objectives whose HVP needs no per-`x`
    /// scratch, like quadratics).
    pub fn empty(dims: (usize, usize)) -> Self {
        Self {
            bufs: [None, None],
            dims,
        }
    }

    /// A state owning one pooled buffer.
    pub fn with_buf(buf: Vec<f64>, dims: (usize, usize)) -> Self {
        Self {
            bufs: [Some(buf), None],
            dims,
        }
    }

    /// A state owning two pooled buffers.
    pub fn with_bufs(first: Vec<f64>, second: Vec<f64>, dims: (usize, usize)) -> Self {
        Self {
            bufs: [Some(first), Some(second)],
            dims,
        }
    }

    /// Borrows pooled buffer `i`.
    ///
    /// # Panics
    /// Panics if slot `i` is empty.
    pub fn buf(&self, i: usize) -> &[f64] {
        self.bufs[i].as_deref().expect("HvpState buffer slot is empty")
    }

    /// Consumes the state, yielding its pooled buffers (for
    /// [`Objective::release_hvp`]).
    pub fn into_bufs(self) -> impl Iterator<Item = Vec<f64>> {
        self.bufs.into_iter().flatten()
    }
}

/// A twice-differentiable finite-sum objective `F(x) = Σ_i f_i(x) + g(x)`.
///
/// Implementations never materialise the Hessian; second-order information is
/// exposed only through Hessian-vector products (the "Hessian-free" approach
/// the paper uses so that problems like E18 with `(C−1)·p ≈ 5·10⁶` variables
/// remain tractable).
pub trait Objective: Sync + Send {
    /// Dimension of the optimisation variable.
    fn dim(&self) -> usize;

    /// Number of samples contributing to the finite sum (0 for synthetic
    /// test objectives that are not data-driven).
    fn num_samples(&self) -> usize {
        0
    }

    /// Objective value `F(x)`.
    fn value(&self, x: &[f64]) -> f64;

    /// Gradient `∇F(x)`.
    fn gradient(&self, x: &[f64]) -> Vec<f64>;

    /// Value and gradient together (implementations can share work).
    fn value_and_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (self.value(x), self.gradient(x))
    }

    /// Hessian-vector product `∇²F(x) · v`.
    fn hessian_vec(&self, x: &[f64], v: &[f64]) -> Vec<f64>;

    /// Returns a Hessian-vector operator at a fixed point `x`. The default
    /// simply forwards to [`Objective::hessian_vec`]; implementations with
    /// reusable per-`x` state (like the softmax probabilities) override this
    /// so that the `m` CG iterations at one Newton step cost `m` GEMM pairs
    /// instead of `2m`.
    fn hvp_operator<'a>(&'a self, x: &[f64]) -> HvpOperator<'a> {
        let x = x.to_vec();
        Box::new(move |v| self.hessian_vec(&x, v))
    }

    // ------------------------------------------------------------------
    // Workspace / in-place API (the solver hot path). Defaults delegate to
    // the allocating methods so third-party objectives keep working.
    // ------------------------------------------------------------------

    /// The execution engine this objective launches kernels on, when it has
    /// been threaded through one. Wrappers ([`crate::ProximalAugmented`])
    /// forward their base objective's device so composite terms charge the
    /// same simulated clock.
    fn device(&self) -> Option<&Device> {
        None
    }

    /// Objective value with pooled scratch.
    fn value_ws(&self, x: &[f64], ws: &mut Workspace) -> f64 {
        let _ = ws;
        self.value(x)
    }

    /// Gradient written into `out` (length [`Objective::dim`]).
    fn gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) {
        let _ = ws;
        out.copy_from_slice(&self.gradient(x));
    }

    /// Value and gradient together; the gradient is written into `out` and
    /// the value returned.
    fn value_and_gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) -> f64 {
        let _ = ws;
        let (v, g) = self.value_and_gradient(x);
        out.copy_from_slice(&g);
        v
    }

    /// Hessian-vector product written into `out`.
    fn hessian_vec_into(&self, x: &[f64], v: &[f64], out: &mut [f64], ws: &mut Workspace) {
        let _ = ws;
        out.copy_from_slice(&self.hessian_vec(x, v));
    }

    /// Captures the per-`x` state needed for repeated Hessian-vector
    /// products (e.g. the softmax probabilities), using pooled buffers.
    /// Callers must hand the state back via [`Objective::release_hvp`].
    fn prepare_hvp(&self, x: &[f64], ws: &mut Workspace) -> HvpState {
        let mut snapshot = ws.acquire(x.len());
        snapshot.copy_from_slice(x);
        HvpState::with_buf(snapshot, (x.len(), 0))
    }

    /// Allocation-free Hessian-vector product at the point captured by
    /// `state`.
    fn hvp_prepared_into(&self, state: &HvpState, v: &[f64], out: &mut [f64], ws: &mut Workspace) {
        self.hessian_vec_into(state.buf(0), v, out, ws);
    }

    /// Returns a prepared-HVP state's buffers to the workspace pool.
    fn release_hvp(&self, state: HvpState, ws: &mut Workspace) {
        for buf in state.into_bufs() {
            ws.release(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Parabola;

    impl Objective for Parabola {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            0.5 * (x[0] * x[0] + 3.0 * x[1] * x[1])
        }
        fn gradient(&self, x: &[f64]) -> Vec<f64> {
            vec![x[0], 3.0 * x[1]]
        }
        fn hessian_vec(&self, _x: &[f64], v: &[f64]) -> Vec<f64> {
            vec![v[0], 3.0 * v[1]]
        }
    }

    #[test]
    fn default_methods_work() {
        let p = Parabola;
        assert_eq!(p.num_samples(), 0);
        let (v, g) = p.value_and_gradient(&[1.0, 2.0]);
        assert!((v - 6.5).abs() < 1e-12);
        assert_eq!(g, vec![1.0, 6.0]);
        let hvp = p.hvp_operator(&[1.0, 2.0]);
        assert_eq!(hvp(&[1.0, 1.0]), vec![1.0, 3.0]);
    }
}
