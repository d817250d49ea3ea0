//! Backend selection for the slice kernels.
//!
//! Every kernel is reached through a [`KernelTable`]: an immutable
//! `static` of function pointers, one per backend. [`table`] returns the
//! table this process runs on, resolved **once**, on first use, from what
//! the host CPU actually supports (`is_x86_feature_detected!`): AVX-512F
//! when available, else AVX2+FMA, else the portable emulated lane code.
//! `GNET_SIMD_FORCE={avx512,avx2,emulated}` (read at that first use)
//! selects a backend instead; a request the host cannot satisfy (or an
//! unknown name) falls back to detection and is recorded as *not honored*
//! in the [`DispatchReport`], so CI can fail loudly instead of silently
//! benchmarking the wrong backend. The resolved table never changes.
//!
//! Code that compares backends does not switch the process: it looks up
//! each backend's table with [`KernelTable::for_backend`] and runs on it
//! (in `gnet-mi`, a scratch built on that table), so runs on different
//! backends can share a process and its threads without moving each
//! other's bits.

use core::fmt;
use std::sync::OnceLock;

use crate::row::Row16;
use crate::run_plan::{Pairing, RunPlan};
use crate::slice_ops;

/// One of the selectable slice-kernel implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// 512-bit AVX-512F intrinsics: one register per 16-lane row.
    Avx512,
    /// 256-bit AVX2+FMA intrinsics: two registers per 16-lane row.
    Avx2,
    /// Portable emulated lanes (`F32x16` arrays); always available.
    Emulated,
}

impl Backend {
    /// Every backend, fastest first — iteration order for "run all
    /// supported backends" loops.
    pub const ALL: [Backend; 3] = [Backend::Avx512, Backend::Avx2, Backend::Emulated];

    /// Stable lower-case name, used in env overrides, bench entry names,
    /// and reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx512 => "avx512",
            Backend::Avx2 => "avx2",
            Backend::Emulated => "emulated",
        }
    }

    /// Parse a backend name as used by `GNET_SIMD_FORCE` (case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(s))
    }

    /// Whether the running CPU can execute this backend.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Emulated => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// All backends the running CPU supports, fastest first.
    pub fn supported() -> Vec<Backend> {
        Backend::ALL
            .iter()
            .copied()
            .filter(|b| b.is_supported())
            .collect()
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The run-blocked joint accumulator's signature: a plan, the pairing,
/// a block of 16-lane register groups of *y* rows and one grid per group
/// ([`KernelTable::accumulate_runs`]).
pub type RunKernel = fn(&RunPlan, Option<Pairing<'_>>, &[&[Row16]], &mut [&mut [Row16]]);

/// The packed joint entropy's signature: a run of register-group grids,
/// the first column's lane, the bins per column and one output per column
/// ([`KernelTable::xlogx_packed`]).
pub type PackedEntropy = fn(&[&[Row16]], usize, usize, &mut [f32]);

/// The function-pointer table one backend exposes. All entries are safe
/// functions: the hardware entries validate their slice arguments before
/// touching raw pointers, exactly like the emulated ones panic on bad
/// shapes.
#[derive(Debug)]
pub struct KernelTable {
    /// Which backend these pointers belong to.
    pub backend: Backend,
    /// `y[i] += a * x[i]` using 16-wide FMA lanes.
    ///
    /// Panics if the slices have different lengths.
    pub axpy: fn(f32, &[f32], &mut [f32]),
    /// `Σ x_i ln x_i` with `0 ln 0 = 0`, 16 lanes at a time.
    ///
    /// The zero-padded tail load is safe here because padding lanes
    /// contribute `0 ln 0 = 0` under the entropy convention. Hardware
    /// backends vectorize `ln` and agree with the emulated/scalar forms to
    /// a few ULP per element (they also treat positive *denormal* inputs
    /// as zero, a < 1e-36-nats difference no real count grid can
    /// produce).
    pub xlogx_sum: fn(&[f32]) -> f32,
    /// The paper's joint-histogram accumulation on 16-lane register
    /// groups, run-blocked and group-blocked: for every group `g` of the
    /// block and every sample `s` of the planned *x* gene, add
    /// `w_s[i] · ys[g][row(s)]` into row `first_bin[s] + i` (`i < k`) of
    /// `grids[g]`, where `row(s) = s` for the observed pairing (`None`)
    /// and `row(s) = π[s]` for a null pairing `Some(π)`. The kernel reads
    /// sorted position `t`'s row as `order[t]` or `π[order[t]]` itself,
    /// so nothing per null is built before it runs. A group's lanes are
    /// whatever the caller laid out in them: a one-gene dense expansion
    /// (`DenseWeights` with `b ≤ 16`) is a block of one group, and a
    /// packed block lays several genes `b` lanes apart across its groups.
    /// The kernel never mixes lanes, so each lane's grid cell is the same
    /// in either layout.
    ///
    /// The samples of one run (same first bin, see [`RunPlan`]) update
    /// the same `k` rows, so the kernel keeps them in registers: per
    /// group, `k` accumulators × 2 partial sets, alternating sample by
    /// sample within the run. At the run's end each row adds
    /// `(set₀ + set₁)` to its grid once. The AVX-512 backend runs up to
    /// [`run_block_columns`] groups per pass over the plan, sharing the
    /// run bounds, index loads and weight broadcasts between them; the
    /// other backends take the block one group at a time. Every lane
    /// sees exactly this sequence of correctly-rounded FMAs and adds at
    /// any block width and on every backend, so results agree bitwise.
    ///
    /// Panics on an empty plan, if `ys` and `grids` differ in length, if
    /// a grid is not exactly the plan's rows, if a group is not exactly
    /// one row per sample, or if the pairing is not one index per sample.
    /// These are O(1)-per-group checks; the O(m) range checks ran when
    /// the plan was built and when the [`Pairing`] was validated.
    ///
    /// [`run_block_columns`]: crate::run_plan::run_block_columns
    pub accumulate_runs: RunKernel,
    /// `Σ x ln x` of each column of a packed block's joint grids:
    /// `grids` are consecutive register groups of equal rows, their lanes
    /// read group after group as one row of `16 · grids.len()` lanes, and
    /// column `c` is lanes `first_lane + c·bins ..` `+ bins` of every row.
    /// `out[c]` is bitwise [`Self::xlogx_sum`] over column `c`'s unpacked
    /// grid (the same rows, the column's lanes at `0..bins`, zeros after):
    /// each group adds `x·ln x` of its rows lane by lane in row order from
    /// zero, each column's `bins` lane sums move to lanes `0..bins` of a
    /// zeroed register (a column may straddle two groups), and the
    /// register reduces through the same pairwise tree.
    ///
    /// Panics unless `1 ≤ bins ≤ 16`, `grids` holds 1 to
    /// [`MAX_PACKED_GROUPS`](crate::slice_ops::MAX_PACKED_GROUPS) groups
    /// of equal length, and the columns end within the groups.
    pub xlogx_packed: PackedEntropy,
}

impl KernelTable {
    /// The table of backend `b`, or `None` when this CPU cannot run it.
    /// A pure lookup: comparing backends means running on each one's
    /// table, never switching the one [`table`] resolved.
    pub fn for_backend(b: Backend) -> Option<&'static KernelTable> {
        b.is_supported().then(|| table_for(b))
    }
}

static EMULATED_TABLE: KernelTable = KernelTable {
    backend: Backend::Emulated,
    axpy: slice_ops::axpy_emulated,
    xlogx_sum: slice_ops::xlogx_sum_emulated,
    accumulate_runs: slice_ops::accumulate_runs_emulated,
    xlogx_packed: slice_ops::xlogx_packed_emulated,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    backend: Backend::Avx2,
    axpy: crate::x86::avx2::axpy,
    xlogx_sum: crate::x86::avx2::xlogx_sum,
    accumulate_runs: crate::x86::avx2::accumulate_runs,
    xlogx_packed: crate::x86::avx2::xlogx_packed,
};

#[cfg(target_arch = "x86_64")]
static AVX512_TABLE: KernelTable = KernelTable {
    backend: Backend::Avx512,
    axpy: crate::x86::avx512::axpy,
    xlogx_sum: crate::x86::avx512::xlogx_sum,
    accumulate_runs: crate::x86::avx512::accumulate_runs,
    xlogx_packed: crate::x86::avx512::xlogx_packed,
};

fn table_for(b: Backend) -> &'static KernelTable {
    match b {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => &AVX512_TABLE,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => &AVX2_TABLE,
        _ => &EMULATED_TABLE,
    }
}

/// The process's dispatch decision: the resolved table and what
/// `GNET_SIMD_FORCE` asked for.
struct Selection {
    table: &'static KernelTable,
    env_request: Option<String>,
    env_honored: bool,
}

static SELECTION: OnceLock<Selection> = OnceLock::new();

/// Highest-performing backend the CPU supports.
fn detect() -> Backend {
    Backend::ALL
        .into_iter()
        .find(|b| b.is_supported())
        .unwrap_or(Backend::Emulated)
}

fn selection() -> &'static Selection {
    SELECTION.get_or_init(|| {
        let detected = detect();
        let env_request = std::env::var("GNET_SIMD_FORCE").ok();
        let (backend, env_honored) = match env_request.as_deref().map(Backend::parse) {
            None => (detected, true),
            Some(Some(b)) if b.is_supported() => (b, true),
            // Unsupported or unknown request: fall back to detection and
            // record the dishonored request for `dispatch_report`.
            Some(_) => (detected, false),
        };
        Selection {
            table: table_for(backend),
            env_request,
            env_honored,
        }
    })
}

/// The kernel table this process runs on: detection, or an honored
/// `GNET_SIMD_FORCE`, resolved on first call and fixed from then on.
pub fn table() -> &'static KernelTable {
    selection().table
}

/// The backend of [`table`].
pub fn active_backend() -> Backend {
    table().backend
}

/// Snapshot of how dispatch was decided, for `gnet simd` and CI smoke
/// checks.
#[derive(Clone, Debug)]
pub struct DispatchReport {
    /// Best backend runtime detection found for this CPU.
    pub detected: Backend,
    /// Backend of the resolved table (detection or env override).
    pub active: Backend,
    /// Every backend this CPU can execute, fastest first.
    pub supported: Vec<Backend>,
    /// Raw `GNET_SIMD_FORCE` value seen at first dispatch, if set.
    pub env_request: Option<String>,
    /// False when `GNET_SIMD_FORCE` was set but could not be applied
    /// (unknown name or unsupported on this CPU).
    pub env_honored: bool,
}

/// Describe the dispatch decision (resolving it on first call).
pub fn dispatch_report() -> DispatchReport {
    let selection = selection();
    DispatchReport {
        detected: detect(),
        active: selection.table.backend,
        supported: Backend::supported(),
        env_request: selection.env_request.clone(),
        env_honored: selection.env_honored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emulated_always_supported() {
        assert!(Backend::Emulated.is_supported());
        assert!(Backend::supported().contains(&Backend::Emulated));
    }

    #[test]
    fn parse_round_trips_names() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(Backend::parse(&b.name().to_uppercase()), Some(b));
        }
        assert_eq!(Backend::parse("neon"), None);
        assert_eq!(Backend::parse("portable"), None);
        assert_eq!(Backend::parse("scalar"), None);
    }

    #[test]
    fn active_backend_is_supported() {
        assert!(active_backend().is_supported());
        assert_eq!(table().backend, active_backend());
    }

    #[test]
    fn detect_prefers_fastest_supported() {
        let report = dispatch_report();
        // `detected` must be the first supported entry of ALL.
        assert_eq!(report.detected, report.supported[0]);
    }

    #[test]
    fn for_backend_is_a_pure_lookup() {
        let before = active_backend();
        for b in Backend::ALL {
            match KernelTable::for_backend(b) {
                Some(t) => {
                    assert!(b.is_supported());
                    assert_eq!(t.backend, b);
                }
                None => assert!(!b.is_supported()),
            }
        }
        assert_eq!(
            active_backend(),
            before,
            "a lookup must not switch dispatch"
        );
    }
}
