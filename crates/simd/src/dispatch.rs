//! Runtime backend selection for the slice kernels.
//!
//! The public kernels in [`crate::slice_ops`] route through a table of
//! function pointers chosen **once**, on first use, from what the host CPU
//! actually supports (`is_x86_feature_detected!`): AVX-512F when available,
//! else AVX2+FMA, else the portable emulated lane code. The decision can be
//! overridden for testing and benchmarking:
//!
//! * `GNET_SIMD_FORCE={avx512,avx2,emulated}` — environment override read
//!   at first dispatch. A request the host cannot satisfy (or an
//!   unparseable value) falls back to detection and is recorded as
//!   *not honored* in the [`DispatchReport`], so CI can fail loudly
//!   instead of silently benchmarking the wrong backend.
//! * [`force_backend`] / [`with_forced`] — programmatic override; the
//!   latter is what the conformance harness and the benchmark suite use to
//!   measure every backend in one process.
//!
//! Forcing swaps a process-global table, so [`with_forced`] serializes
//! callers behind a mutex and restores the previous backend on exit (even
//! on panic). Concurrent *kernel* calls during a forced section simply see
//! one coherent table or the other — every table computes correct results,
//! only speed differs (and, for `xlogx_sum`, a few ULP; see the grades in
//! `DESIGN.md` §14).

use core::fmt;
use core::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::row::Row16;
use crate::run_plan::RunPlan;
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
        match s.to_ascii_lowercase().as_str() {
            "avx512" => Some(Backend::Avx512),
            "avx2" => Some(Backend::Avx2),
            "emulated" | "portable" | "scalar" => Some(Backend::Emulated),
            _ => None,
        }
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

    fn id(self) -> u8 {
        match self {
            Backend::Avx512 => 1,
            Backend::Avx2 => 2,
            Backend::Emulated => 3,
        }
    }

    fn from_id(id: u8) -> Option<Backend> {
        match id {
            1 => Some(Backend::Avx512),
            2 => Some(Backend::Avx2),
            3 => Some(Backend::Emulated),
            _ => None,
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The run-blocked joint accumulator's signature: a plan, the pairing,
/// a block of dense *y* genes and one grid per *y*
/// ([`slice_ops::accumulate_runs`]).
pub type RunKernel = fn(&RunPlan, Option<usize>, &[&[Row16]], &mut [&mut [Row16]]);

/// The function-pointer table one backend exposes. All entries are safe
/// functions: the hardware entries validate their slice arguments before
/// touching raw pointers, exactly like the emulated ones panic on bad
/// shapes.
pub struct KernelTable {
    /// Which backend these pointers belong to.
    pub backend: Backend,
    /// Slice sum.
    pub sum: fn(&[f32]) -> f32,
    /// Dot product.
    pub dot: fn(&[f32], &[f32]) -> f32,
    /// `y += a·x`.
    pub axpy: fn(f32, &[f32], &mut [f32]),
    /// `Σ x ln x` with `0 ln 0 = 0`.
    pub xlogx_sum: fn(&[f32]) -> f32,
    /// In-place scalar multiply.
    pub scale: fn(f32, &mut [f32]),
    /// Run-blocked dense 16-lane joint-histogram accumulation of a block
    /// of *y* columns into one grid each (the paper's kernel; see
    /// [`slice_ops::accumulate_runs`]).
    pub accumulate_runs: RunKernel,
}

impl KernelTable {
    /// The table of backend `b`, or `None` when this CPU cannot run it.
    /// A pure lookup: it neither reads nor changes the active backend, so
    /// tests and benches can compare backends without forcing dispatch.
    pub fn for_backend(b: Backend) -> Option<&'static KernelTable> {
        b.is_supported().then(|| table_for(b))
    }
}

static EMULATED_TABLE: KernelTable = KernelTable {
    backend: Backend::Emulated,
    sum: slice_ops::sum_emulated,
    dot: slice_ops::dot_emulated,
    axpy: slice_ops::axpy_emulated,
    xlogx_sum: slice_ops::xlogx_sum_emulated,
    scale: slice_ops::scale_emulated,
    accumulate_runs: slice_ops::accumulate_runs_emulated,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    backend: Backend::Avx2,
    sum: crate::x86::avx2::sum,
    dot: crate::x86::avx2::dot,
    axpy: crate::x86::avx2::axpy,
    xlogx_sum: crate::x86::avx2::xlogx_sum,
    scale: crate::x86::avx2::scale,
    accumulate_runs: crate::x86::avx2::accumulate_runs,
};

#[cfg(target_arch = "x86_64")]
static AVX512_TABLE: KernelTable = KernelTable {
    backend: Backend::Avx512,
    sum: crate::x86::avx512::sum,
    dot: crate::x86::avx512::dot,
    axpy: crate::x86::avx512::axpy,
    xlogx_sum: crate::x86::avx512::xlogx_sum,
    scale: crate::x86::avx512::scale,
    accumulate_runs: crate::x86::avx512::accumulate_runs,
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

/// 0 = not yet initialized; otherwise a `Backend::id`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// What `GNET_SIMD_FORCE` asked for at first dispatch, if anything.
struct EnvRequest {
    raw: Option<String>,
    honored: bool,
}

static ENV_REQUEST: OnceLock<EnvRequest> = OnceLock::new();

/// Highest-performing backend the CPU supports.
fn detect() -> Backend {
    for b in Backend::ALL {
        if b.is_supported() {
            return b;
        }
    }
    Backend::Emulated
}

fn init() -> Backend {
    let detected = detect();
    let raw = std::env::var("GNET_SIMD_FORCE").ok();
    let parsed = raw.as_deref().and_then(Backend::parse);
    let (active, honored) = match (&raw, parsed) {
        (_, Some(b)) if b.is_supported() => (b, true),
        (None, _) => (detected, true),
        // Unsupported or unparseable request: fall back to detection and
        // record the dishonored request for `dispatch_report`.
        _ => (detected, false),
    };
    let _ = ENV_REQUEST.set(EnvRequest { raw, honored });
    // ordering: ACTIVE is a standalone selector — every table it can point
    // at is a `static`, so no other memory must be ordered with the store.
    ACTIVE.store(active.id(), Ordering::Relaxed);
    active
}

fn ensure_init() -> Backend {
    // ordering: racing initializers compute identical values; stale reads
    // of 0 merely re-run the idempotent `init`.
    match Backend::from_id(ACTIVE.load(Ordering::Relaxed)) {
        Some(b) => b,
        None => init(),
    }
}

/// The kernel table currently in effect (initializing dispatch on first
/// call).
pub fn table() -> &'static KernelTable {
    table_for(ensure_init())
}

/// The backend currently in effect (initializing dispatch on first call).
pub fn active_backend() -> Backend {
    ensure_init()
}

/// Error returned when a forced backend is not executable on this CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnsupportedBackend(pub Backend);

impl fmt::Display for UnsupportedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "backend `{}` is not supported by this CPU", self.0)
    }
}

impl std::error::Error for UnsupportedBackend {}

/// Force the process-global dispatch to `b` for all subsequent kernel
/// calls. Fails (leaving dispatch unchanged) if the CPU lacks the
/// features. Prefer [`with_forced`] in tests, which restores the previous
/// backend.
pub fn force_backend(b: Backend) -> Result<(), UnsupportedBackend> {
    if !b.is_supported() {
        return Err(UnsupportedBackend(b));
    }
    ensure_init();
    // ordering: see `init` — the selector guards nothing but itself.
    ACTIVE.store(b.id(), Ordering::Relaxed);
    Ok(())
}

static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with dispatch forced to `b`, restoring the previous backend
/// afterwards (also on panic). Serialized process-wide so concurrent
/// forced sections cannot interleave their overrides.
pub fn with_forced<R>(b: Backend, f: impl FnOnce() -> R) -> Result<R, UnsupportedBackend> {
    let _guard = FORCE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let previous = ensure_init();
    force_backend(b)?;
    struct Restore(Backend);
    impl Drop for Restore {
        fn drop(&mut self) {
            // The previous backend was active before, so it is supported.
            let _ = force_backend(self.0);
        }
    }
    let _restore = Restore(previous);
    Ok(f())
}

/// Snapshot of how dispatch was decided, for `gnet simd` and CI smoke
/// checks.
#[derive(Clone, Debug)]
pub struct DispatchReport {
    /// Best backend runtime detection found for this CPU.
    pub detected: Backend,
    /// Backend currently in effect (detection, env, or API override).
    pub active: Backend,
    /// Every backend this CPU can execute, fastest first.
    pub supported: Vec<Backend>,
    /// Raw `GNET_SIMD_FORCE` value seen at first dispatch, if set.
    pub env_request: Option<String>,
    /// False when `GNET_SIMD_FORCE` was set but could not be applied
    /// (unknown name or unsupported on this CPU).
    pub env_honored: bool,
}

/// Describe the current dispatch decision (initializing it on first call).
pub fn dispatch_report() -> DispatchReport {
    let active = ensure_init();
    let env = ENV_REQUEST.get();
    DispatchReport {
        detected: detect(),
        active,
        supported: Backend::supported(),
        env_request: env.and_then(|e| e.raw.clone()),
        env_honored: env.map(|e| e.honored).unwrap_or(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that force or read the active backend: a
    /// forced section in one test thread would otherwise show up as a
    /// foreign backend in another test's `active_backend()` read.
    static ACTIVE_LOCK: Mutex<()> = Mutex::new(());

    fn lock_active() -> std::sync::MutexGuard<'static, ()> {
        ACTIVE_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

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
    }

    #[test]
    fn active_backend_is_supported() {
        let _active = lock_active();
        assert!(active_backend().is_supported());
        assert_eq!(table().backend, active_backend());
    }

    #[test]
    fn detect_prefers_fastest_supported() {
        let _active = lock_active();
        let report = dispatch_report();
        // `detected` must be the first supported entry of ALL.
        assert_eq!(report.detected, report.supported[0]);
    }

    #[test]
    fn with_forced_restores_previous_backend() {
        let _active = lock_active();
        let before = active_backend();
        let ran = with_forced(Backend::Emulated, || {
            assert_eq!(active_backend(), Backend::Emulated);
            42
        })
        .expect("emulated is always supported");
        assert_eq!(ran, 42);
        assert_eq!(active_backend(), before);
    }

    #[test]
    fn with_forced_restores_on_panic() {
        let _active = lock_active();
        let before = active_backend();
        let result = std::panic::catch_unwind(|| {
            let _ = with_forced(Backend::Emulated, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(active_backend(), before);
    }

    #[test]
    fn every_supported_backend_can_be_forced() {
        let _active = lock_active();
        for b in Backend::supported() {
            with_forced(b, || {
                assert_eq!(active_backend(), b);
                assert_eq!(table().backend, b);
            })
            .expect("supported backend must force cleanly");
        }
    }

    #[test]
    fn for_backend_is_a_pure_lookup() {
        let _active = lock_active();
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
