//! Vector-unit descriptors consumed by the `gnet-phi` machine model.

use serde::{Deserialize, Serialize};

/// Geometry and throughput characteristics of one vector unit.
///
/// The machine simulator multiplies a kernel's scalar operation count by
/// `1 / (lanes * efficiency)` to obtain its vectorized cost, mirroring how
/// the paper attributes its kernel speedups to the 512-bit VPU.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct VectorModel {
    /// Single-precision lanes per vector register (16 on KNC, 8 on AVX).
    pub f32_lanes: usize,
    /// Fraction of peak lane utilization a real kernel achieves (0, 1].
    /// Captures masked tails, alignment fix-ups, and reduction overhead.
    pub efficiency: f64,
    /// Whether fused multiply-add issues as a single operation.
    pub has_fma: bool,
}

impl VectorModel {
    /// 512-bit IMCI unit of the Xeon Phi (Knights Corner).
    pub fn imci_512() -> Self {
        Self {
            f32_lanes: 16,
            efficiency: 0.70,
            has_fma: true,
        }
    }

    /// 256-bit AVX unit of a Sandy Bridge Xeon E5 (no FMA).
    pub fn avx_256() -> Self {
        Self {
            f32_lanes: 8,
            efficiency: 0.75,
            has_fma: false,
        }
    }

    /// 512-bit AVX-512 unit of a host Xeon — the hardware behind the
    /// `avx512` dispatch backend ([`crate::Backend::Avx512`]). Same
    /// 16-lane geometry as the coprocessor's IMCI unit, with a slightly
    /// higher sustained efficiency: the host core is out-of-order and
    /// the backend issues one fused 512-bit multiply-add per dense row.
    pub fn avx512_xeon() -> Self {
        Self {
            f32_lanes: 16,
            efficiency: 0.75,
            has_fma: true,
        }
    }

    /// 256-bit AVX2 unit with FMA (Haswell onwards) — the hardware
    /// behind the `avx2` dispatch backend ([`crate::Backend::Avx2`]),
    /// which requires both features and runs two fused 256-bit
    /// multiply-adds where the AVX-512 backend runs one.
    pub fn avx2_fma_256() -> Self {
        Self {
            f32_lanes: 8,
            efficiency: 0.75,
            has_fma: true,
        }
    }

    /// Scalar pseudo-unit: one lane, full efficiency. Used to model the
    /// paper's "vectorization disabled" baseline.
    pub fn scalar() -> Self {
        Self {
            f32_lanes: 1,
            efficiency: 1.0,
            has_fma: true,
        }
    }

    /// Effective speedup over scalar code for a lane-friendly kernel.
    pub fn effective_speedup(&self) -> f64 {
        let fma_boost = if self.has_fma { 1.0 } else { 0.75 };
        // cast-ok: lane counts are small integers, exact in f64
        (self.f32_lanes as f64 * self.efficiency * fma_boost).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_widths() {
        assert_eq!(VectorModel::imci_512().f32_lanes, 16);
        assert_eq!(VectorModel::avx_256().f32_lanes, 8);
        assert_eq!(VectorModel::scalar().f32_lanes, 1);
    }

    #[test]
    fn scalar_speedup_is_one() {
        assert_eq!(VectorModel::scalar().effective_speedup(), 1.0);
    }

    #[test]
    fn phi_vector_speedup_exceeds_xeon() {
        assert!(
            VectorModel::imci_512().effective_speedup()
                > VectorModel::avx_256().effective_speedup()
        );
    }

    #[test]
    fn effective_speedup_never_below_one() {
        let v = VectorModel {
            f32_lanes: 1,
            efficiency: 0.1,
            has_fma: false,
        };
        assert_eq!(v.effective_speedup(), 1.0);
    }

    #[test]
    fn dispatch_backend_presets_order_fastest_first() {
        // The model must rank the dispatch backends exactly as the
        // dispatcher tries them: avx512, then avx2, then emulated
        // (which executes one lane-sized operation at a time, i.e. the
        // scalar pseudo-unit).
        let avx512 = VectorModel::avx512_xeon().effective_speedup();
        let avx2 = VectorModel::avx2_fma_256().effective_speedup();
        let emulated = VectorModel::scalar().effective_speedup();
        assert!(avx512 > avx2 && avx2 > emulated);
    }

    /// Minimal extractor for the `"min"` of one entry in a
    /// `BENCH_14.json` artifact — just enough structure for the test
    /// below without pulling a JSON dependency into `gnet-simd`.
    fn bench_min(text: &str, id: &str) -> Option<f64> {
        let needle = format!("\"id\": \"{id}\"");
        let entry = text.split('{').find(|chunk| chunk.contains(&needle))?;
        let min = entry.split("\"min\":").nth(1)?;
        min.split(',').next()?.trim().parse().ok()
    }

    #[test]
    fn modeled_backend_ordering_matches_the_committed_bench_baseline() {
        // The committed per-backend bench entries are the measured
        // ground truth for what each backend costs; the model's
        // `effective_speedup` ordering must not contradict them. Only
        // entries actually present in the baseline are compared, so a
        // baseline regenerated on a host without AVX-512 still anchors
        // the remaining pairs.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_14.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_14.json is present");
        let measured: Vec<(&str, f64, f64)> = [
            ("kernel.vector.avx512", VectorModel::avx512_xeon()),
            ("kernel.vector.avx2", VectorModel::avx2_fma_256()),
            ("kernel.vector.emulated", VectorModel::scalar()),
        ]
        .into_iter()
        .filter_map(|(id, model)| {
            bench_min(&text, id).map(|min_us| (id, model.effective_speedup(), min_us))
        })
        .collect();
        assert!(
            !measured.is_empty(),
            "BENCH_14.json lost its kernel.vector.* per-backend entries"
        );
        for pair in measured.windows(2) {
            let (fast_id, fast_speedup, fast_min) = pair[0];
            let (slow_id, slow_speedup, slow_min) = pair[1];
            assert!(fast_speedup > slow_speedup, "preset ordering regressed");
            assert!(
                fast_min < slow_min,
                "model says {fast_id} beats {slow_id}, but the baseline measured \
                 {fast_min} us vs {slow_min} us"
            );
        }
    }

    #[test]
    fn avx_without_fma_pays_penalty() {
        let with_fma = VectorModel {
            has_fma: true,
            ..VectorModel::avx_256()
        };
        assert!(with_fma.effective_speedup() > VectorModel::avx_256().effective_speedup());
    }
}
