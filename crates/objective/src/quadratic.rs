//! Strongly-convex quadratic objective `f(x) = ½ xᵀAx − bᵀx` with SPD `A`.
//!
//! Not part of the paper itself, but the workhorse of the test-suite: CG must
//! solve it exactly, Newton must converge in one step, and consensus ADMM
//! must converge to the known minimiser `x* = A⁻¹ b`.

use crate::traits::{HvpState, Objective};
use nadmm_device::{Device, Workspace};
use nadmm_linalg::{DenseMatrix, Matrix};

/// `f(x) = ½ xᵀ A x − bᵀ x` with symmetric positive-definite `A`, executing
/// its matrix–vector kernels through the [`Device`] engine.
#[derive(Debug, Clone)]
pub struct Quadratic {
    a: Matrix,
    b: Vec<f64>,
    device: Device,
}

impl Quadratic {
    /// Creates the quadratic. `a` must be square and SPD, `b.len() == a.rows()`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn new(a: DenseMatrix, b: Vec<f64>) -> Self {
        assert_eq!(a.rows(), a.cols(), "A must be square");
        assert_eq!(a.rows(), b.len(), "b must match A");
        Self {
            a: Matrix::Dense(a),
            b,
            device: Device::default(),
        }
    }

    /// Attaches the execution engine all kernels launch on.
    pub fn with_device(mut self, device: Device) -> Self {
        self.device = device;
        self
    }

    /// The system matrix.
    pub fn matrix(&self) -> &DenseMatrix {
        match &self.a {
            Matrix::Dense(d) => d,
            Matrix::Sparse(_) => unreachable!("Quadratic is always dense"),
        }
    }

    /// The linear term.
    pub fn linear(&self) -> &[f64] {
        &self.b
    }

    /// The exact minimiser `x* = A⁻¹ b`, computed by (dense) Gaussian
    /// elimination with partial pivoting — only used for test-sized systems.
    pub fn exact_minimizer(&self) -> Vec<f64> {
        solve_dense(self.matrix(), &self.b)
    }
}

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
///
/// # Panics
/// Panics if the matrix is singular to working precision.
#[allow(clippy::needless_range_loop)] // textbook triangular-solve indexing
pub fn solve_dense(a: &DenseMatrix, b: &[f64]) -> Vec<f64> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.len(), n);
    let mut m = a.clone();
    let mut x = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        for r in (col + 1)..n {
            if m.get(r, col).abs() > m.get(pivot, col).abs() {
                pivot = r;
            }
        }
        assert!(m.get(pivot, col).abs() > 1e-14, "singular matrix in solve_dense");
        if pivot != col {
            for j in 0..n {
                let tmp = m.get(col, j);
                m.set(col, j, m.get(pivot, j));
                m.set(pivot, j, tmp);
            }
            x.swap(col, pivot);
        }
        let d = m.get(col, col);
        for r in (col + 1)..n {
            let factor = m.get(r, col) / d;
            if factor != 0.0 {
                for j in col..n {
                    let v = m.get(r, j) - factor * m.get(col, j);
                    m.set(r, j, v);
                }
                x[r] -= factor * x[col];
            }
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut s = x[col];
        for j in (col + 1)..n {
            s -= m.get(col, j) * x[j];
        }
        x[col] = s / m.get(col, col);
    }
    x
}

impl Objective for Quadratic {
    fn dim(&self) -> usize {
        self.b.len()
    }

    fn device(&self) -> &Device {
        &self.device
    }

    fn value_ws(&self, x: &[f64], ws: &mut Workspace) -> f64 {
        let mut ax = ws.acquire(self.dim());
        self.device.matvec_into(&self.a, x, &mut ax);
        let value = 0.5 * self.device.dot(x, &ax) - self.device.dot(&self.b, x);
        ws.release(ax);
        value
    }

    fn gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) {
        let _ = ws;
        self.device.matvec_into(&self.a, x, out);
        self.device.axpy(-1.0, &self.b, out);
    }

    fn value_and_gradient_into(&self, x: &[f64], out: &mut [f64], _ws: &mut Workspace) -> f64 {
        // One matvec serves both: out = Ax, value from dots, then out -= b.
        self.device.matvec_into(&self.a, x, out);
        let value = 0.5 * self.device.dot(x, out) - self.device.dot(&self.b, x);
        self.device.axpy(-1.0, &self.b, out);
        value
    }

    fn prepare_hvp(&self, _x: &[f64], _ws: &mut Workspace) -> HvpState {
        // The Hessian is constant: no per-x state needed.
        HvpState::empty()
    }

    fn hvp_prepared_into(&self, _state: &HvpState, v: &[f64], out: &mut [f64], _ws: &mut Workspace) {
        self.device.matvec_into(&self.a, v, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_linalg::{gen, vector};

    #[test]
    fn value_gradient_hessian_are_consistent() {
        let a = DenseMatrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 4.0]);
        let q = Quadratic::new(a, vec![2.0, 4.0]);
        // minimum at x = (1, 1), value = -(bᵀx)/2 = -3
        let xstar = q.exact_minimizer();
        assert!((xstar[0] - 1.0).abs() < 1e-10);
        assert!((xstar[1] - 1.0).abs() < 1e-10);
        assert!((q.value(&xstar) + 3.0).abs() < 1e-10);
        let g = q.gradient(&xstar);
        assert!(vector::norm2(&g) < 1e-10);
        assert_eq!(q.hessian_vec(&xstar, &[1.0, 0.0]), vec![2.0, 0.0]);
        assert_eq!(q.dim(), 2);
    }

    #[test]
    fn exact_minimizer_zeroes_gradient_on_random_spd() {
        let mut rng = gen::seeded_rng(2);
        for n in [3, 6, 10] {
            let a = gen::spd_with_condition(n, 50.0, &mut rng);
            let b = gen::gaussian_vector(n, &mut rng);
            let q = Quadratic::new(a, b);
            let x = q.exact_minimizer();
            assert!(
                vector::norm2(&q.gradient(&x)) < 1e-7,
                "gradient not zero at minimiser (n={n})"
            );
        }
    }

    #[test]
    fn solve_dense_handles_permuted_systems() {
        // A matrix that needs pivoting (zero on the diagonal).
        let a = DenseMatrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve_dense(&a, &[3.0, 5.0]);
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn singular_systems_are_rejected() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        solve_dense(&a, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn non_square_matrices_are_rejected() {
        Quadratic::new(DenseMatrix::zeros(2, 3), vec![0.0, 0.0]);
    }
}
