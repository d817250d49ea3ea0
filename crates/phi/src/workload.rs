//! The MI computation as per-pair operation counts.

use crate::machine::MachineModel;
use serde::{Deserialize, Serialize};

/// Which kernel class the workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum KernelClass {
    /// Scalar scattered `k × k` kernel on sparse weights.
    ScalarSparse,
    /// Dense row-FMA kernel on lane-padded weights.
    #[default]
    VectorDense,
}

impl KernelClass {
    /// Stable short name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Self::ScalarSparse => "scalar",
            Self::VectorDense => "vector",
        }
    }
}

/// Cycles charged per grid cell of the entropy reduction (xlogx + add),
/// scalar form. The vector form divides by the lane count.
const ENTROPY_CYCLES_PER_CELL: f64 = 10.0;

/// Cycles per weight-matrix element during per-gene preparation (rank
/// transform + Cox–de Boor), a second-order term checked against the
/// pipeline's measured preprocessing share.
const PREP_CYCLES_PER_ELEMENT: f64 = 40.0;

/// A complete description of one network-construction run, sufficient to
/// derive its operation counts.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadModel {
    /// Number of genes `n`.
    pub genes: usize,
    /// Number of samples `m`.
    pub samples: usize,
    /// Spline order `k`.
    pub order: usize,
    /// Bins `b`.
    pub bins: usize,
    /// Null permutations `q`.
    pub q: usize,
    /// Kernel the run uses.
    pub kernel: KernelClass,
}

impl WorkloadModel {
    /// The headline configuration: Arabidopsis dimensions with the TINGe
    /// estimator defaults and 30 shared permutations.
    ///
    /// ```
    /// use gnet_phi::{MachineModel, WorkloadModel};
    /// let w = WorkloadModel::arabidopsis_headline();
    /// assert_eq!(w.pairs(), 121_282_525); // 15,575 × 15,574 / 2
    /// // The Phi gains far more from vectorization than the Xeon:
    /// let phi = w.vectorization_speedup(&MachineModel::xeon_phi_5110p());
    /// let xeon = w.vectorization_speedup(&MachineModel::xeon_e5_2670_2s());
    /// assert!(phi > 2.0 * xeon);
    /// ```
    pub fn arabidopsis_headline() -> Self {
        Self {
            genes: 15_575,
            samples: 3_137,
            order: 3,
            bins: 10,
            q: 30,
            kernel: KernelClass::VectorDense,
        }
    }

    /// Total gene pairs `n(n−1)/2`.
    pub fn pairs(&self) -> u64 {
        let n = self.genes as u64;
        n * (n - 1) / 2
    }

    /// Joint-entropy evaluations per pair (observed + `q` nulls).
    pub fn joints_per_pair(&self) -> u64 {
        self.q as u64 + 1
    }

    /// Bins padded to the lane width of `machine` (the dense layout).
    pub fn bins_padded(&self, machine: &MachineModel) -> usize {
        let lanes = machine.vector.f32_lanes.max(1);
        self.bins.div_ceil(lanes) * lanes
    }

    /// Cycles one thread at full core throughput needs for one pair
    /// (observed MI plus all nulls), on `machine`, under this kernel.
    pub fn pair_cycles(&self, machine: &MachineModel) -> f64 {
        let joints = self.joints_per_pair() as f64;
        let m = self.samples as f64;
        let k = self.order as f64;
        match self.kernel {
            KernelClass::ScalarSparse => {
                let accumulate = m * k * k * machine.scalar_mac_cycles;
                let entropy = (self.bins * self.bins) as f64 * ENTROPY_CYCLES_PER_CELL;
                joints * (accumulate + entropy)
            }
            KernelClass::VectorDense => {
                let lanes = machine.vector.f32_lanes as f64;
                let rows = (self.bins_padded(machine) as f64 / lanes).ceil();
                let accumulate =
                    m * k * rows * machine.vector_op_overhead / machine.vector.efficiency;
                let cells = (self.bins * self.bins_padded(machine)) as f64;
                let entropy = cells * ENTROPY_CYCLES_PER_CELL / lanes;
                joints * (accumulate + entropy)
            }
        }
    }

    /// Wall-clock seconds for one pair on one thread with `resident`
    /// threads sharing its core.
    pub fn pair_seconds(&self, machine: &MachineModel, resident: usize) -> f64 {
        let cycles = self.pair_cycles(machine);
        let rate = machine.clock_ghz * 1e9 * machine.thread_throughput(resident);
        cycles / rate
    }

    /// Cycles for the one-off per-gene preparation stage (rank transform,
    /// spline weights, marginal entropy) over the whole matrix.
    pub fn prep_cycles(&self) -> f64 {
        (self.genes as f64)
            * (self.samples as f64)
            * (self.bins as f64).max(1.0)
            * PREP_CYCLES_PER_ELEMENT
            / 10.0
    }

    /// Vectorization speedup predicted for `machine`: scalar over vector
    /// per-pair cycles (experiment R4's modeled series).
    pub fn vectorization_speedup(&self, machine: &MachineModel) -> f64 {
        let scalar = Self {
            kernel: KernelClass::ScalarSparse,
            ..*self
        };
        let vector = Self {
            kernel: KernelClass::VectorDense,
            ..*self
        };
        scalar.pair_cycles(machine) / vector.pair_cycles(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;

    fn headline() -> WorkloadModel {
        WorkloadModel::arabidopsis_headline()
    }

    #[test]
    fn pair_count_matches_formula() {
        let w = headline();
        assert_eq!(w.pairs(), 15_575u64 * 15_574 / 2);
        assert_eq!(w.joints_per_pair(), 31);
    }

    #[test]
    fn padding_matches_lane_width() {
        let w = headline();
        assert_eq!(w.bins_padded(&MachineModel::xeon_phi_5110p()), 16);
        assert_eq!(w.bins_padded(&MachineModel::xeon_e5_2670_2s()), 16);
        assert_eq!(w.bins_padded(&MachineModel::bluegene_l_1024()), 10);
    }

    #[test]
    fn phi_vectorization_speedup_is_large() {
        let w = headline();
        let s = w.vectorization_speedup(&MachineModel::xeon_phi_5110p());
        assert!(
            (6.0..14.0).contains(&s),
            "KNC vectorization gain should be order-of-magnitude, got {s:.2}"
        );
    }

    #[test]
    fn xeon_vectorization_speedup_is_smaller_but_real() {
        let w = headline();
        let phi = w.vectorization_speedup(&MachineModel::xeon_phi_5110p());
        let xeon = w.vectorization_speedup(&MachineModel::xeon_e5_2670_2s());
        assert!(xeon > 1.2, "AVX must still win, got {xeon:.2}");
        assert!(
            phi > 2.0 * xeon,
            "the Phi gain must dominate: {phi:.2} vs {xeon:.2}"
        );
    }

    #[test]
    fn scalar_kernel_costs_more_cycles_than_vector_everywhere() {
        let w = headline();
        for m in [
            MachineModel::xeon_phi_5110p(),
            MachineModel::xeon_e5_2670_2s(),
        ] {
            let scalar = WorkloadModel {
                kernel: KernelClass::ScalarSparse,
                ..w
            };
            let vector = WorkloadModel {
                kernel: KernelClass::VectorDense,
                ..w
            };
            assert!(
                scalar.pair_cycles(&m) > vector.pair_cycles(&m),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn pair_cycles_scale_linearly_in_samples_and_q() {
        let w = headline();
        let machine = MachineModel::xeon_phi_5110p();
        let double_m = WorkloadModel {
            samples: w.samples * 2,
            ..w
        };
        let ratio = double_m.pair_cycles(&machine) / w.pair_cycles(&machine);
        assert!((ratio - 2.0).abs() < 0.05, "samples ratio {ratio}");

        let double_q = WorkloadModel { q: 61, ..w };
        let ratio_q = double_q.pair_cycles(&machine) / w.pair_cycles(&machine);
        assert!((ratio_q - 2.0).abs() < 0.05, "q ratio {ratio_q}");
    }

    #[test]
    fn pair_seconds_reflect_smt_contention() {
        let w = headline();
        let phi = MachineModel::xeon_phi_5110p();
        // 2 resident threads each run at 0.5 core rate = same per-thread
        // speed as 1 resident (KNC oddity), 4 resident are slower each.
        assert_eq!(w.pair_seconds(&phi, 1), w.pair_seconds(&phi, 2));
        assert!(w.pair_seconds(&phi, 4) > w.pair_seconds(&phi, 2));
    }

    #[test]
    fn headline_per_pair_time_is_sub_millisecond_on_phi() {
        let w = headline();
        let phi = MachineModel::xeon_phi_5110p();
        let t = w.pair_seconds(&phi, 4);
        assert!(
            t > 1e-5 && t < 5e-3,
            "per-pair time {t}s out of plausible range"
        );
    }

    #[test]
    fn kernel_names() {
        assert_eq!(KernelClass::ScalarSparse.name(), "scalar");
        assert_eq!(KernelClass::VectorDense.name(), "vector");
    }
}
