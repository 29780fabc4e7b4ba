//! Hardware specification used by the device cost model.

use serde::{Deserialize, Serialize};

/// Static description of an accelerator, in SI units (FLOP/s, bytes/s,
/// seconds). The defaults below are the public spec-sheet numbers for the
/// hardware classes the paper used, de-rated to realistic sustained
/// fractions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable name, e.g. `"tesla-p100"`.
    pub name: &'static str,
    /// Sustained double-precision throughput in FLOP/s.
    pub flops_per_sec: f64,
    /// Sustained device-memory bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Fixed overhead per kernel launch, in seconds.
    pub launch_latency: f64,
    /// Host↔device (PCIe) bandwidth in bytes/s.
    pub pcie_bandwidth: f64,
    /// Fixed latency per host↔device transfer, in seconds.
    pub pcie_latency: f64,
}

impl DeviceSpec {
    /// NVIDIA Tesla P100 (the accelerator used in the paper's cluster):
    /// 4.7 TFLOP/s FP64 peak (de-rated to ~60%), 732 GB/s HBM2 (de-rated to
    /// ~70%), ~5 µs launch latency, PCIe gen3 x16 ≈ 12 GB/s.
    pub fn tesla_p100() -> Self {
        Self {
            name: "tesla-p100",
            flops_per_sec: 4.7e12 * 0.6,
            mem_bandwidth: 732.0e9 * 0.7,
            launch_latency: 5.0e-6,
            pcie_bandwidth: 12.0e9,
            pcie_latency: 10.0e-6,
        }
    }

    /// A slower, CPU-like executor (useful for ablations showing how much of
    /// the paper's advantage comes from the accelerator itself): ~100 GFLOP/s
    /// FP64 and ~60 GB/s of memory bandwidth, no launch latency.
    pub fn cpu_like() -> Self {
        Self {
            name: "cpu-like",
            flops_per_sec: 100.0e9,
            mem_bandwidth: 60.0e9,
            launch_latency: 0.0,
            pcie_bandwidth: f64::INFINITY,
            pcie_latency: 0.0,
        }
    }

    /// A generic "fast GPU" roughly one generation newer than the P100
    /// (V100-class): used in scaling ablations.
    pub fn tesla_v100() -> Self {
        Self {
            name: "tesla-v100",
            flops_per_sec: 7.8e12 * 0.6,
            mem_bandwidth: 900.0e9 * 0.7,
            launch_latency: 5.0e-6,
            pcie_bandwidth: 14.0e9,
            pcie_latency: 10.0e-6,
        }
    }

    /// Time to run a kernel touching `flops` floating-point operations and
    /// `bytes` of device memory: launch latency plus the roofline maximum of
    /// the compute and memory terms.
    pub fn kernel_time(&self, flops: f64, bytes: f64) -> f64 {
        let compute = if self.flops_per_sec > 0.0 {
            flops / self.flops_per_sec
        } else {
            0.0
        };
        let memory = if self.mem_bandwidth > 0.0 {
            bytes / self.mem_bandwidth
        } else {
            0.0
        };
        self.launch_latency + compute.max(memory)
    }

    /// Time to move `bytes` across the host↔device link.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        if self.pcie_bandwidth.is_infinite() {
            self.pcie_latency
        } else {
            self.pcie_latency + bytes / self.pcie_bandwidth
        }
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self::tesla_p100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p100_numbers_are_sane() {
        let s = DeviceSpec::tesla_p100();
        assert!(s.flops_per_sec > 1e12);
        assert!(s.mem_bandwidth > 1e11);
        assert!(s.launch_latency > 0.0);
    }

    #[test]
    fn kernel_time_is_roofline() {
        let s = DeviceSpec::tesla_p100();
        // Compute-bound: lots of flops, few bytes.
        let t_compute = s.kernel_time(1e12, 1e3);
        assert!((t_compute - (s.launch_latency + 1e12 / s.flops_per_sec)).abs() < 1e-12);
        // Memory-bound: few flops, lots of bytes.
        let t_mem = s.kernel_time(1e3, 1e12);
        assert!((t_mem - (s.launch_latency + 1e12 / s.mem_bandwidth)).abs() < 1e-9);
        // Empty kernel still pays the launch.
        assert_eq!(s.kernel_time(0.0, 0.0), s.launch_latency);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let s = DeviceSpec::tesla_p100();
        let t1 = s.transfer_time(1e6);
        let t2 = s.transfer_time(2e6);
        assert!(t2 > t1);
        let free = DeviceSpec::cpu_like();
        assert_eq!(free.transfer_time(1e9), 0.0);
    }

    #[test]
    fn faster_device_is_faster() {
        let p100 = DeviceSpec::tesla_p100();
        let v100 = DeviceSpec::tesla_v100();
        assert!(v100.kernel_time(1e12, 1e9) < p100.kernel_time(1e12, 1e9));
        let cpu = DeviceSpec::cpu_like();
        assert!(cpu.kernel_time(1e12, 1e9) > p100.kernel_time(1e12, 1e9));
    }

    #[test]
    fn default_is_p100() {
        assert_eq!(DeviceSpec::default(), DeviceSpec::tesla_p100());
    }

    #[test]
    fn a_spec_written_with_a_precision_key_loads_as_the_same_device() {
        use serde::{Deserialize as _, Serialize as _};
        // Older scenario files carry a `"precision"` key, which selected the
        // storage width of kernels no solver launched. It is ignored.
        let serde::Value::Map(entries) = DeviceSpec::tesla_p100().to_value() else {
            unreachable!("specs serialize as maps")
        };
        let mut legacy: Vec<_> = entries.into_iter().filter(|(k, _)| k != "precision").collect();
        legacy.push(("precision".to_string(), serde::Value::Str("f16".into())));
        assert_eq!(
            DeviceSpec::from_value(&serde::Value::Map(legacy)).unwrap(),
            DeviceSpec::tesla_p100()
        );
    }
}
