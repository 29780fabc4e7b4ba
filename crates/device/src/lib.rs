//! # nadmm-device
//!
//! A simulated GPU substrate.
//!
//! The paper runs every solver on Tesla P100 GPUs and attributes a large part
//! of Newton-ADMM's per-epoch advantage to pushing the dense
//! GEMM/Hessian-vector work onto the accelerator. No GPU (nor a mature Rust
//! GPU/autodiff stack) is available in this environment, so this crate
//! substitutes an *execution model*:
//!
//! * every kernel the optimizers need (GEMM, GEMV, AXPY, dot, softmax rows)
//!   is executed numerically on the CPU via `nadmm-linalg` (rayon-parallel),
//!   so all results are bit-for-bit what a real device would produce, and
//! * each launch is charged against an analytic cost model
//!   ([`DeviceSpec`]): `launch_latency + max(flops / throughput,
//!   bytes / memory_bandwidth)`, with host↔device transfers charged as
//!   `latency + bytes / pcie_bandwidth`.
//!
//! The accumulated simulated time ([`Device::elapsed`]) is what the
//! experiment harness reports as "GPU time", which preserves the *relative*
//! per-epoch behaviour the paper relies on (compute-bound GEMMs vs
//! latency-bound small kernels) without the hardware.
//!
//! This crate is the workspace's **execution engine**: every hot-path kernel
//! of the objectives and solvers launches through [`Device`] (in-place
//! variants — `gemm_nt_into`, the one-sweep `X Wᵀ → map → Mᵀ X` fusion
//! `gemm_nt_map_tn_into`, `matvec_into`, `t_matvec_into`,
//! `softmax_rows_into`, the fused `axpy_dot`), with scratch
//! storage pooled in a [`Workspace`] so steady-state solver loops allocate
//! nothing. See the workspace README's "Execution engine" section for the
//! full Device → Workspace → Objective → Solver layering and how to add a
//! real GPU or `f32` backend behind this seam.

pub mod clock;
pub mod device;
pub mod spec;
pub mod workspace;

pub use clock::SimClock;
pub use device::{Device, DeviceStats};
pub use spec::DeviceSpec;
pub use workspace::{Workspace, WorkspaceStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_compile() {
        let d = Device::new(DeviceSpec::tesla_p100());
        assert_eq!(d.elapsed(), 0.0);
    }
}
