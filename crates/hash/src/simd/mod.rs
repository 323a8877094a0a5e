//! Runtime-dispatched SIMD microkernels for the two hot stages of a dot
//! layer: the projection GEMM and the XOR+popcount Hamming search.
//!
//! The packed Hamming kernels ([`PackedHashes::hamming_into`] and
//! friends) and the panel projection ([`project_into`]) route through
//! this module: a *detection table* is built once per process
//! (`is_x86_feature_detected!` / NEON, cached in a [`OnceLock`]) and an
//! *active variant* is selected from it — by default the most capable
//! detected kernel, overridable with the `DEEPCAM_SIMD` environment
//! variable (`auto`, `scalar`, `avx2`, `avx512`, `neon`; read once,
//! outside the A5 kernel files). The variant selects both kernels.
//!
//! Every variant computes the **same bits**, so dispatch can never move
//! an output bit:
//!
//! - Hamming: popcounts are exact integers with one right answer.
//! - Projection: each output element is one serial chain, `+0.0` then
//!   `+= x·b` over ascending n, with the multiply and the add each
//!   rounded (no FMA contraction). AVX-512 runs an 8-row × 32-column
//!   zmm tile; every other variant runs the portable 4 × 32 tile, whose
//!   chain is that of `deepcam_tensor::matmul_dense_into`.
//!
//! The portable kernels ([`scalar`]) are the always-available fallback
//! *and* the differential oracle: the scalar-vs-SIMD suite
//! (`tests/simd_differential.rs`) plus `tests/hotpath_reference.rs`
//! assert bitwise equality on every variant the host detects, and the
//! CI `DEEPCAM_SIMD=scalar` leg keeps the fallback exercised on
//! SIMD-capable runners.
//!
//! The dispatch cost is one relaxed atomic load per *range* call (not
//! per row), and [`force_variant`] lets benches and tests pin a variant
//! process-wide — safe to flip mid-run precisely because all variants
//! are bit-identical.
//!
//! [`PackedHashes::hamming_into`]: crate::PackedHashes::hamming_into

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::projection::ProjectionPanels;

pub mod scalar;

#[cfg(target_arch = "aarch64")]
pub mod neon;
#[cfg(target_arch = "x86_64")]
pub mod x86;

/// Environment variable selecting the kernel variant (`auto` when
/// unset). Invalid or undetected values fall back to `auto` — loudly,
/// once per distinct bad value, mirroring `DEEPCAM_WORKERS`.
pub const SIMD_ENV: &str = "DEEPCAM_SIMD";

/// One implementation of the projection and XOR+popcount kernels.
///
/// Ordered by capability: later variants are preferred by `auto`
/// selection when detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Variant {
    /// Portable `u64::count_ones` loop and 4 × 32 panel projection —
    /// always available; the differential oracle every other variant is
    /// tested against.
    Scalar,
    /// AArch64 NEON `vcnt` byte popcount with pairwise widening; the
    /// portable projection.
    Neon,
    /// AVX2 Harley–Seal carry-save popcount over 256-bit lanes
    /// (nibble-LUT `vpshufb` + `vpsadbw` reduction); the portable
    /// projection.
    Avx2,
    /// AVX-512 `VPOPCNTDQ`: hardware per-lane popcount over 512-bit
    /// blocks, and an 8 × 32 zmm register tile for the projection.
    Avx512,
}

impl Variant {
    /// The name used by `DEEPCAM_SIMD` and the bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Scalar => "scalar",
            Variant::Neon => "neon",
            Variant::Avx2 => "avx2",
            Variant::Avx512 => "avx512",
        }
    }

    fn from_name(name: &str) -> Option<Variant> {
        match name {
            "scalar" => Some(Variant::Scalar),
            "neon" => Some(Variant::Neon),
            "avx2" => Some(Variant::Avx2),
            "avx512" => Some(Variant::Avx512),
            _ => None,
        }
    }

    /// Encoding for the active-variant atomic (0 is "not yet resolved").
    fn code(self) -> u8 {
        match self {
            Variant::Scalar => 1,
            Variant::Neon => 2,
            Variant::Avx2 => 3,
            Variant::Avx512 => 4,
        }
    }

    fn from_code(code: u8) -> Option<Variant> {
        match code {
            1 => Some(Variant::Scalar),
            2 => Some(Variant::Neon),
            3 => Some(Variant::Avx2),
            4 => Some(Variant::Avx512),
            _ => None,
        }
    }
}

/// The kernel entry points of one variant. Every entry computes the
/// identical integer function; only the instructions differ.
struct Kernels {
    /// Hamming distance of `query` against every `wpr`-word row of a
    /// contiguous slab, one `u32` per row.
    range: fn(slab: &[u64], wpr: usize, query: &[u64], out: &mut [u32]),
    /// Hamming distance between two equal-length word slices.
    pair: fn(a: &[u64], b: &[u64]) -> u32,
    /// `[m, n]` rows times a paneled `[n, k]` projection, into `[m, k]`.
    project: fn(rows: &[f32], m: usize, n: usize, panels: &ProjectionPanels, out: &mut [f32]),
}

/// Kernel table for `variant`. Variants that cannot exist on this
/// architecture are unreachable here because [`detected`] never lists
/// them and [`force_variant`] refuses them.
fn kernels_of(variant: Variant) -> &'static Kernels {
    const SCALAR: Kernels = Kernels {
        range: scalar::hamming_range,
        pair: scalar::hamming_pair,
        project: scalar::project_panels,
    };
    #[cfg(target_arch = "x86_64")]
    const AVX2: Kernels = Kernels {
        range: x86::hamming_range_avx2,
        pair: x86::hamming_pair_avx2,
        project: scalar::project_panels,
    };
    #[cfg(target_arch = "x86_64")]
    const AVX512: Kernels = Kernels {
        range: x86::hamming_range_avx512,
        pair: x86::hamming_pair_avx512,
        project: x86::project_into_avx512,
    };
    #[cfg(target_arch = "aarch64")]
    const NEON: Kernels = Kernels {
        range: neon::hamming_range_neon,
        pair: neon::hamming_pair_neon,
        project: scalar::project_panels,
    };
    match variant {
        #[cfg(target_arch = "x86_64")]
        Variant::Avx2 => &AVX2,
        #[cfg(target_arch = "x86_64")]
        Variant::Avx512 => &AVX512,
        #[cfg(target_arch = "aarch64")]
        Variant::Neon => &NEON,
        _ => &SCALAR,
    }
}

/// The variants this host supports, in ascending capability order —
/// always starts with [`Variant::Scalar`]. Detection runs once per
/// process and is cached (the `OnceLock` detection table).
pub fn detected() -> &'static [Variant] {
    static TABLE: OnceLock<Vec<Variant>> = OnceLock::new();
    TABLE.get_or_init(|| {
        #[allow(unused_mut)]
        let mut table = vec![Variant::Scalar];
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            table.push(Variant::Neon);
        }
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                table.push(Variant::Avx2);
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq") {
                table.push(Variant::Avx512);
            }
        }
        table
    })
}

/// Whether `variant` is runnable on this host.
pub fn is_detected(variant: Variant) -> bool {
    detected().contains(&variant)
}

/// Resolution of the `DEEPCAM_SIMD` override, pure so every outcome is
/// unit-testable without touching the process environment: returns the
/// selected variant plus the warning to emit when `raw` is set but
/// unusable (unknown name, or a variant this host does not support).
fn resolve_env(raw: Option<&str>, table: &[Variant]) -> (Variant, Option<String>) {
    let auto = *table.last().expect("non-empty table");
    let Some(raw) = raw else { return (auto, None) };
    let trimmed = raw.trim();
    if trimmed == "auto" {
        return (auto, None);
    }
    match Variant::from_name(trimmed) {
        Some(v) if table.contains(&v) => (v, None),
        Some(v) => (
            auto,
            Some(format!(
                "warning: {SIMD_ENV}={raw:?} requests the {} kernel but this host does not \
                 support it; falling back to {} (results are bit-identical either way)",
                v.name(),
                auto.name()
            )),
        ),
        None => (
            auto,
            Some(format!(
                "warning: ignoring unknown {SIMD_ENV}={raw:?} (expected auto, scalar, avx2, \
                 avx512 or neon); falling back to {}",
                auto.name()
            )),
        ),
    }
}

/// The process-wide active variant (0 = not yet resolved). A plain
/// atomic rather than the `OnceLock` itself so [`force_variant`] can
/// re-point dispatch mid-process — safe because every variant computes
/// identical bits.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The currently active kernel variant. First use resolves the
/// `DEEPCAM_SIMD` override against the detection table; subsequent
/// calls are one relaxed load.
pub fn active() -> Variant {
    match Variant::from_code(ACTIVE.load(Ordering::Relaxed)) {
        Some(v) => v,
        None => {
            let raw = std::env::var(SIMD_ENV).ok();
            let (variant, warning) = resolve_env(raw.as_deref(), detected());
            if let Some(msg) = warning {
                emit_env_warning_once(&msg);
            }
            // Racing first calls resolve to the same value; last store
            // wins harmlessly.
            ACTIVE.store(variant.code(), Ordering::Relaxed);
            variant
        }
    }
}

/// Pins the active variant process-wide (benches sweeping every kernel;
/// the differential suites). Returns the previously active variant, or
/// `None` — with dispatch unchanged — when `variant` is not detected on
/// this host.
pub fn force_variant(variant: Variant) -> Option<Variant> {
    if !is_detected(variant) {
        return None;
    }
    let prev = active();
    ACTIVE.store(variant.code(), Ordering::Relaxed);
    Some(prev)
}

/// Prints `msg` to stderr once per distinct message (same discipline as
/// the `DEEPCAM_WORKERS` misconfiguration warning).
fn emit_env_warning_once(msg: &str) {
    use std::sync::Mutex;
    static WARNED: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    let mut seen = WARNED
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("simd env warning lock");
    if seen.iter().any(|m| m == msg) {
        return;
    }
    eprintln!("{msg}");
    seen.push(msg.to_string());
}

/// Validates the shared slab/query/out contract once, before any kernel
/// runs — every variant inherits the checked contract instead of
/// re-deriving (or forgetting) it.
#[inline]
fn check_range_contract(slab: &[u64], wpr: usize, query: &[u64], out: &mut [u32]) -> bool {
    assert_eq!(
        query.len(),
        wpr,
        "query width must match the row stride ({wpr} words)"
    );
    if wpr == 0 {
        // Zero-width rows: every distance is zero by definition.
        out.fill(0);
        return false;
    }
    assert_eq!(
        slab.len(),
        out.len() * wpr,
        "slab must hold exactly one stride per output slot"
    );
    true
}

/// Dispatched range kernel: Hamming distance of `query` against every
/// `wpr`-word row of `slab` (one `u32` per row, row order preserved).
///
/// # Panics
///
/// Panics when `query` is not exactly `wpr` words or `slab` is not
/// exactly `out.len() * wpr` words.
#[inline]
pub fn hamming_range(slab: &[u64], wpr: usize, query: &[u64], out: &mut [u32]) {
    if check_range_contract(slab, wpr, query, out) {
        (kernels_of(active()).range)(slab, wpr, query, out);
    }
}

/// [`hamming_range`] pinned to an explicit variant — the differential
/// suites compare every detected variant against the scalar oracle
/// through this entry without mutating process-wide dispatch.
///
/// # Panics
///
/// Panics when `variant` is not detected on this host, or on the same
/// contract violations as [`hamming_range`].
pub fn hamming_range_with(
    variant: Variant,
    slab: &[u64],
    wpr: usize,
    query: &[u64],
    out: &mut [u32],
) {
    assert!(
        is_detected(variant),
        "variant {} is not supported on this host",
        variant.name()
    );
    if check_range_contract(slab, wpr, query, out) {
        (kernels_of(variant).range)(slab, wpr, query, out);
    }
}

/// Dispatched single-pair kernel: Hamming distance between two
/// equal-length word slices (the occupancy-skip path of the CAM array).
///
/// # Panics
///
/// Panics when the slices differ in length.
#[inline]
pub fn hamming_pair(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "word slices must be equal length");
    (kernels_of(active()).pair)(a, b)
}

/// [`hamming_pair`] pinned to an explicit variant.
///
/// # Panics
///
/// Panics when `variant` is not detected on this host or the slices
/// differ in length.
pub fn hamming_pair_with(variant: Variant, a: &[u64], b: &[u64]) -> u32 {
    assert!(
        is_detected(variant),
        "variant {} is not supported on this host",
        variant.name()
    );
    assert_eq!(a.len(), b.len(), "word slices must be equal length");
    (kernels_of(variant).pair)(a, b)
}

/// Validates the shared rows/panels/out contract of the projection
/// once, before any kernel runs.
#[inline]
fn check_project_contract(
    rows: &[f32],
    m: usize,
    n: usize,
    panels: &ProjectionPanels,
    out: &[f32],
) {
    assert_eq!(
        panels.input_dim(),
        n,
        "panels must be built for {n}-element rows"
    );
    assert_eq!(rows.len(), m * n, "rows buffer must be m*n");
    assert_eq!(out.len(), m * panels.hash_len(), "out buffer must be m*k");
}

/// Dispatched projection: `out[m, k] = rows[m, n] · C`, with the `[n, k]`
/// projection `C` read from its panels, `out` row-major.
///
/// Bitwise equal to `deepcam_tensor::matmul_dense_into` over the
/// row-major `C` on every variant: each element is one serial chain,
/// `+0.0` then `+= x·b` over ascending n.
///
/// # Panics
///
/// Panics when `panels` were built for a patch length other than `n`,
/// `rows` is not `m * n` floats, or `out` is not `m * k` floats.
#[inline]
pub fn project_into(rows: &[f32], m: usize, n: usize, panels: &ProjectionPanels, out: &mut [f32]) {
    check_project_contract(rows, m, n, panels, out);
    (kernels_of(active()).project)(rows, m, n, panels, out);
}

/// [`project_into`] pinned to an explicit variant — the differential
/// suite compares every detected variant against the row-major oracle
/// through this entry without mutating process-wide dispatch.
///
/// # Panics
///
/// Panics when `variant` is not detected on this host, or on the same
/// contract violations as [`project_into`].
pub fn project_into_with(
    variant: Variant,
    rows: &[f32],
    m: usize,
    n: usize,
    panels: &ProjectionPanels,
    out: &mut [f32],
) {
    assert!(
        is_detected(variant),
        "variant {} is not supported on this host",
        variant.name()
    );
    check_project_contract(rows, m, n, panels, out);
    (kernels_of(variant).project)(rows, m, n, panels, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_table_starts_with_scalar() {
        let table = detected();
        assert_eq!(table.first(), Some(&Variant::Scalar));
        // Ascending capability order, no duplicates.
        for pair in table.windows(2) {
            assert!(pair[0] < pair[1], "table out of order: {table:?}");
        }
    }

    #[test]
    fn env_resolution_rules() {
        let table = [Variant::Scalar, Variant::Avx2];
        // Unset and auto pick the most capable detected variant.
        assert_eq!(resolve_env(None, &table), (Variant::Avx2, None));
        assert_eq!(resolve_env(Some("auto"), &table), (Variant::Avx2, None));
        // A detected variant is honored (whitespace tolerated).
        assert_eq!(
            resolve_env(Some(" scalar "), &table),
            (Variant::Scalar, None)
        );
        assert_eq!(resolve_env(Some("avx2"), &table), (Variant::Avx2, None));
        // Known but undetected: fall back loudly.
        let (v, warn) = resolve_env(Some("avx512"), &table);
        assert_eq!(v, Variant::Avx2);
        assert!(warn.is_some_and(|w| w.contains("avx512")));
        // Unknown name: fall back loudly.
        let (v, warn) = resolve_env(Some("sse9"), &table);
        assert_eq!(v, Variant::Avx2);
        assert!(warn.is_some_and(|w| w.contains("unknown")));
    }

    #[test]
    fn force_variant_round_trips() {
        let initial = active();
        let prev = force_variant(Variant::Scalar).expect("scalar is always detected");
        assert_eq!(prev, initial);
        assert_eq!(active(), Variant::Scalar);
        force_variant(initial).expect("restoring a detected variant");
        assert_eq!(active(), initial);
    }

    #[test]
    fn force_variant_refuses_undetected() {
        // At most one of these can be detected on any real host; an
        // undetected one must leave dispatch untouched.
        let before = active();
        for v in [Variant::Avx2, Variant::Avx512, Variant::Neon] {
            if !is_detected(v) {
                assert_eq!(force_variant(v), None);
                assert_eq!(active(), before);
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for v in [
            Variant::Scalar,
            Variant::Neon,
            Variant::Avx2,
            Variant::Avx512,
        ] {
            assert_eq!(Variant::from_name(v.name()), Some(v));
            assert_eq!(Variant::from_code(v.code()), Some(v));
        }
        assert_eq!(Variant::from_name("turbo"), None);
        assert_eq!(Variant::from_code(0), None);
    }

    #[test]
    fn zero_width_rows_have_zero_distance() {
        let mut out = [7u32; 3];
        hamming_range(&[], 0, &[], &mut out);
        assert_eq!(out, [0, 0, 0]);
    }

    #[test]
    fn every_detected_variant_matches_scalar_on_a_smoke_slab() {
        let wpr = 5;
        let slab: Vec<u64> = (0..40u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let query: Vec<u64> = (0..wpr as u64)
            .map(|i| !i.wrapping_mul(0x85EB_CA6B))
            .collect();
        let mut want = vec![0u32; slab.len() / wpr];
        hamming_range_with(Variant::Scalar, &slab, wpr, &query, &mut want);
        for &v in detected() {
            let mut got = vec![0u32; want.len()];
            hamming_range_with(v, &slab, wpr, &query, &mut got);
            assert_eq!(got, want, "variant {}", v.name());
            for (row, &w) in want.iter().enumerate() {
                let a = &slab[row * wpr..(row + 1) * wpr];
                assert_eq!(
                    hamming_pair_with(v, a, &query),
                    w,
                    "variant {} row {row}",
                    v.name()
                );
            }
        }
    }
}
