//! The objective-function interface shared by every solver in the workspace.
//!
//! One interface: an objective writes the **workspace forms** the solvers
//! call — `value_ws`, `gradient_into`, `value_and_gradient_into`, the
//! per-`x` pair `prepare_hvp` → `hvp_prepared_into`, and
//! `value_gradient_and_hvp_into`, the value, gradient and HVP state of one
//! Newton point from one pass where the objective can — with results written
//! into caller-provided slices, all scratch acquired from a [`Workspace`]
//! pool, and every kernel launched through (and billed on) the objective's
//! [`Device`]. Steady-state solver loops therefore allocate nothing.
//!
//! The allocating conveniences `value` / `gradient` / `value_and_gradient` /
//! `hessian_vec` are provided one-liners over those forms with a fresh
//! [`Workspace`]: same code path, same bits, same device billing. They serve
//! tests, oracles and one-shot callers; no objective overrides them.

use nadmm_device::{Device, Workspace};

/// Opaque per-`x` state for repeated Hessian-vector products, produced by
/// [`Objective::prepare_hvp`] and consumed by [`Objective::hvp_prepared_into`].
///
/// The buffer comes from (and returns to) a [`Workspace`], and the state
/// holds it inline — no heap shell — so `prepare_hvp` allocates **nothing**
/// once the pool is warm (the zero-allocation proofs in the bench crate
/// depend on this). What the buffer holds is private to the objective that
/// created the state.
#[derive(Debug, Default)]
pub struct HvpState {
    /// Pooled buffer owned by this state (returned via
    /// [`Objective::release_hvp`]).
    buf: Option<Vec<f64>>,
}

impl HvpState {
    /// A state with no pooled buffer (objectives whose HVP needs no per-`x`
    /// scratch, like quadratics).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A state owning one pooled buffer.
    pub fn with_buf(buf: Vec<f64>) -> Self {
        Self { buf: Some(buf) }
    }

    /// Borrows the pooled buffer.
    ///
    /// # Panics
    /// Panics if the state holds none.
    pub fn buf(&self) -> &[f64] {
        self.buf.as_deref().expect("HvpState holds no buffer")
    }

    /// Consumes the state, yielding its pooled buffer (for
    /// [`Objective::release_hvp`]).
    pub fn into_buf(self) -> Option<Vec<f64>> {
        self.buf
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

    /// The execution engine this objective launches its kernels on. Wrappers
    /// ([`crate::ProximalAugmented`]) forward their base objective's device
    /// so composite terms charge the same simulated clock.
    fn device(&self) -> &Device;

    /// Objective value `F(x)`, with pooled scratch.
    fn value_ws(&self, x: &[f64], ws: &mut Workspace) -> f64;

    /// Gradient `∇F(x)` written into `out` (length [`Objective::dim`]).
    fn gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace);

    /// Value and gradient together (implementations share work); the
    /// gradient is written into `out` and the value returned.
    fn value_and_gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) -> f64;

    /// Captures the per-`x` state needed for repeated Hessian-vector
    /// products (e.g. the softmax probabilities) in a pooled buffer, so the
    /// `m` CG iterations of one Newton step cost `m` products instead of
    /// `2m`. Callers must hand the state back via [`Objective::release_hvp`].
    fn prepare_hvp(&self, x: &[f64], ws: &mut Workspace) -> HvpState;

    /// Allocation-free Hessian-vector product `∇²F(x) · v` at the point
    /// captured by `state`, written into `out`.
    fn hvp_prepared_into(&self, state: &HvpState, v: &[f64], out: &mut [f64], ws: &mut Workspace);

    /// Everything a Newton step needs at one `x`: the value (returned), the
    /// gradient (written into `grad`) and the prepared-HVP state, the same
    /// bits as [`Objective::value_and_gradient_into`] followed by
    /// [`Objective::prepare_hvp`], which is what this default does. An
    /// objective whose gradient pass already computes the HVP state (the
    /// softmax probabilities) overrides it to keep that state instead of
    /// computing it a second time. Callers hand the state back via
    /// [`Objective::release_hvp`].
    fn value_gradient_and_hvp_into(&self, x: &[f64], grad: &mut [f64], ws: &mut Workspace) -> (f64, HvpState) {
        let value = self.value_and_gradient_into(x, grad, ws);
        (value, self.prepare_hvp(x, ws))
    }

    /// Returns a prepared-HVP state's buffer to the workspace pool.
    fn release_hvp(&self, state: HvpState, ws: &mut Workspace) {
        if let Some(buf) = state.into_buf() {
            ws.release(buf);
        }
    }

    /// One-shot Hessian-vector product written into `out`: prepare, apply,
    /// release.
    fn hessian_vec_into(&self, x: &[f64], v: &[f64], out: &mut [f64], ws: &mut Workspace) {
        let state = self.prepare_hvp(x, ws);
        self.hvp_prepared_into(&state, v, out, ws);
        self.release_hvp(state, ws);
    }

    /// Allocating [`Objective::value_ws`].
    fn value(&self, x: &[f64]) -> f64 {
        self.value_ws(x, &mut Workspace::new())
    }

    /// Allocating [`Objective::gradient_into`].
    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut g = vec![0.0; self.dim()];
        self.gradient_into(x, &mut g, &mut Workspace::new());
        g
    }

    /// Allocating [`Objective::value_and_gradient_into`].
    fn value_and_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let mut g = vec![0.0; self.dim()];
        let v = self.value_and_gradient_into(x, &mut g, &mut Workspace::new());
        (v, g)
    }

    /// Allocating [`Objective::hessian_vec_into`].
    fn hessian_vec(&self, x: &[f64], v: &[f64]) -> Vec<f64> {
        let mut hv = vec![0.0; self.dim()];
        self.hessian_vec_into(x, v, &mut hv, &mut Workspace::new());
        hv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `½(x₀² + 3x₁²)`, written with the required methods only.
    #[derive(Default)]
    struct Parabola {
        device: Device,
    }

    impl Objective for Parabola {
        fn dim(&self) -> usize {
            2
        }
        fn device(&self) -> &Device {
            &self.device
        }
        fn value_ws(&self, x: &[f64], _ws: &mut Workspace) -> f64 {
            0.5 * (x[0] * x[0] + 3.0 * x[1] * x[1])
        }
        fn gradient_into(&self, x: &[f64], out: &mut [f64], _ws: &mut Workspace) {
            out.copy_from_slice(&[x[0], 3.0 * x[1]]);
        }
        fn value_and_gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) -> f64 {
            self.gradient_into(x, out, ws);
            self.value_ws(x, ws)
        }
        fn prepare_hvp(&self, x: &[f64], ws: &mut Workspace) -> HvpState {
            // The Hessian is constant; hold a buffer anyway so the provided
            // release path is exercised.
            HvpState::with_buf(ws.acquire(x.len()))
        }
        fn hvp_prepared_into(&self, _state: &HvpState, v: &[f64], out: &mut [f64], _ws: &mut Workspace) {
            out.copy_from_slice(&[v[0], 3.0 * v[1]]);
        }
    }

    #[test]
    fn default_methods_work() {
        let p = Parabola::default();
        let x = [1.0, 2.0];
        assert_eq!(p.num_samples(), 0);
        assert!((p.value(&x) - 6.5).abs() < 1e-12);
        assert_eq!(p.gradient(&x), vec![1.0, 6.0]);
        let (v, g) = p.value_and_gradient(&x);
        assert!((v - 6.5).abs() < 1e-12);
        assert_eq!(g, vec![1.0, 6.0]);
        assert_eq!(p.hessian_vec(&x, &[1.0, 1.0]), vec![1.0, 3.0]);
        let mut ws = Workspace::new();
        let mut hv = [0.0; 2];
        p.hessian_vec_into(&x, &[2.0, -1.0], &mut hv, &mut ws);
        assert_eq!(hv, [2.0, -3.0]);
        assert_eq!(ws.stats().outstanding, 0, "hessian_vec_into must release its state");
        assert_eq!(ws.pooled_buffers(), 1);
    }
}
