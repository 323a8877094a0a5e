//! Per-width scalar-vs-SIMD differential suite: every kernel variant the
//! host detects must be **bitwise equal** to the scalar oracle
//! (`hamming_words`) on every width — explicit boundary widths around
//! the word, lane and Harley–Seal group sizes, plus randomized
//! property-based sweeps.
//!
//! These tests gate the SIMD wave: a variant that disagrees with scalar
//! on any input is a correctness bug, never a tolerance question —
//! popcounts are exact integers.
//!
//! The projection section holds every variant's panel projection
//! ([`project_into_with`]) to the row-major dense GEMM
//! (`matmul_dense_into`) bit for bit: every tile remainder, every
//! supported hash width, and operands with signed zeros, subnormals and
//! magnitudes whose products overflow.

use deepcam_hash::packed::hamming_words;
use deepcam_hash::simd::{
    detected, force_variant, hamming_pair_with, hamming_range_with, project_into,
    project_into_with, Variant,
};
use deepcam_hash::{BitVec, PackedHashes, ProjectionPanels, SUPPORTED_HASH_LENGTHS};
use deepcam_tensor::matmul_dense_into;
use proptest::prelude::*;

/// The boundary widths (in bits) the suite must cover: 1, the word edges
/// (63/64/65), the AVX2 lane and Harley–Seal group edges (255/256/257),
/// and the full four-chunk CAM width.
const BOUNDARY_BITS: [usize; 9] = [1, 63, 64, 65, 255, 256, 257, 512, 1024];

/// Deterministic splittable word pattern (no RNG needed for the
/// fixed-width sweeps).
fn mixed_word(seed: u64, i: u64) -> u64 {
    (seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left((i % 63) as u32)
}

fn patterned_bitvec(bits: usize, seed: u64) -> BitVec {
    let bools: Vec<bool> = (0..bits)
        .map(|i| mixed_word(seed, (i / 64) as u64) >> (i % 64) & 1 == 1)
        .collect();
    BitVec::from_bools(&bools)
}

#[test]
fn every_detected_variant_matches_scalar_on_boundary_widths() {
    for &bits in &BOUNDARY_BITS {
        let rows: Vec<BitVec> = (0..17).map(|r| patterned_bitvec(bits, r as u64)).collect();
        let tile = PackedHashes::from_bitvecs(bits, &rows).expect("equal widths");
        let query = patterned_bitvec(bits, 777);
        let wpr = tile.words_per_row();
        let slab: Vec<u64> = (0..tile.rows())
            .flat_map(|r| tile.row_words(r).iter().copied())
            .collect();

        // Scalar oracle, three independent routes that must agree: the
        // BitVec reference, hamming_words, and the scalar range kernel.
        let mut want = vec![0u32; tile.rows()];
        hamming_range_with(Variant::Scalar, &slab, wpr, query.words(), &mut want);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(
                want[r] as usize,
                row.hamming(&query).unwrap(),
                "bits {bits} row {r}"
            );
            assert_eq!(want[r], hamming_words(tile.row_words(r), query.words()));
        }

        for &v in detected() {
            let mut got = vec![0u32; tile.rows()];
            hamming_range_with(v, &slab, wpr, query.words(), &mut got);
            assert_eq!(got, want, "bits {bits} variant {}", v.name());
            for (r, &w) in want.iter().enumerate() {
                assert_eq!(
                    hamming_pair_with(v, tile.row_words(r), query.words()),
                    w,
                    "bits {bits} variant {} row {r}",
                    v.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_rows_match_scalar_on_every_variant(
        bits in 1usize..700,
        rows in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let words: Vec<BitVec> = (0..rows)
            .map(|r| patterned_bitvec(bits, seed.wrapping_add(r as u64)))
            .collect();
        let tile = PackedHashes::from_bitvecs(bits, &words).unwrap();
        let query = patterned_bitvec(bits, seed ^ 0xABCD);
        let mut want = vec![0u32; rows];
        tile.hamming_into(query.words(), &mut want);
        // The dispatched pass must agree with the BitVec reference…
        for (row, w) in words.iter().enumerate() {
            prop_assert_eq!(want[row] as usize, w.hamming(&query).unwrap());
        }
        // …and every detected variant must agree bitwise with scalar.
        for &v in detected() {
            for (row, w) in words.iter().enumerate() {
                let got = hamming_pair_with(v, tile.row_words(row), query.words());
                prop_assert_eq!(got, want[row], "variant {} row {} ({:?})", v.name(), row, w.len());
            }
        }
    }
}

#[test]
fn forced_variants_drive_the_public_kernel() {
    // force_variant repoints the dispatched entry points themselves; the
    // results must be identical for every detected variant (flipping the
    // active variant mid-run is benign by the bit-exactness contract).
    let bits = 511;
    let rows: Vec<BitVec> = (0..9)
        .map(|r| patterned_bitvec(bits, 40 + r as u64))
        .collect();
    let tile = PackedHashes::from_bitvecs(bits, &rows).unwrap();
    let query = patterned_bitvec(bits, 99);
    let mut want = vec![0u32; rows.len()];
    let initial = force_variant(Variant::Scalar).expect("scalar always detected");
    tile.hamming_into(query.words(), &mut want);
    for &v in detected() {
        force_variant(v).expect("detected variant");
        let mut got = vec![0u32; rows.len()];
        tile.hamming_into(query.words(), &mut got);
        assert_eq!(got, want, "variant {}", v.name());
        for (row, &w) in want.iter().enumerate() {
            assert_eq!(tile.hamming_row(row, query.words()), w);
        }
    }
    let _ = force_variant(initial);
}

#[test]
fn hamming_words_length_contract_is_checked_in_release() {
    let caught = std::panic::catch_unwind(|| hamming_words(&[0u64; 3], &[0u64; 4]));
    assert!(
        caught.is_err(),
        "mismatched lengths must panic, not truncate"
    );
}

// ---------------------------------------------------------------------
// Projection: every variant's panel kernel against the row-major oracle.
// ---------------------------------------------------------------------

/// Patch lengths of the zoo's dot layers, from a 1-element row to a
/// 3×3×256 patch.
const PATCH_LENS: [usize; 5] = [1, 27, 72, 576, 2304];

/// Operand values the float chain must reproduce exactly: signed zeros,
/// subnormals, and magnitudes whose products overflow to ±∞ (and whose
/// sums then reach NaN).
const SPECIAL: [f32; 10] = [
    0.0,
    -0.0,
    1.0e-40,
    -1.0e-40,
    f32::MIN_POSITIVE,
    3.0e38,
    -3.0e38,
    1.0e20,
    -1.0e-20,
    1.0,
];

/// Deterministic operand: mostly a spread of ordinary values, with every
/// seventh element drawn from [`SPECIAL`] when `special` is set.
fn operand(seed: u64, i: usize, special: bool) -> f32 {
    let h = mixed_word(seed, i as u64);
    if special && h.is_multiple_of(7) {
        SPECIAL[(h >> 8) as usize % SPECIAL.len()]
    } else {
        ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 4.0
    }
}

/// Asserts every detected variant's `project_into` equals
/// `matmul_dense_into` bitwise for `[m, n] · [n, k]` at every `m` of
/// `ms` (the rows are prefixes of one operand buffer); returns how many
/// oracle outputs were non-finite.
fn assert_projection_matches_dense(
    ms: std::ops::RangeInclusive<usize>,
    n: usize,
    k: usize,
    seed: u64,
    special: bool,
) -> usize {
    let all_rows: Vec<f32> = (0..ms.end() * n)
        .map(|i| operand(seed, i, special))
        .collect();
    let matrix: Vec<f32> = (0..n * k)
        .map(|i| operand(seed ^ 0x5EED, i, special))
        .collect();
    let panels = ProjectionPanels::from_row_major(&matrix, n, k);
    let mut non_finite = 0;
    for m in ms {
        let rows = &all_rows[..m * n];
        let mut want = vec![0.0f32; m * k];
        matmul_dense_into(rows, m, n, &matrix, k, &mut want);
        non_finite += want.iter().filter(|x| !x.is_finite()).count();
        for &v in detected() {
            let mut got = vec![f32::NAN; m * k];
            project_into_with(v, rows, m, n, &panels, &mut got);
            if let Some(at) = (0..m * k).find(|&i| got[i].to_bits() != want[i].to_bits()) {
                panic!(
                    "variant {} m={m} n={n} k={k}: element {at} is {:e}, oracle {:e}",
                    v.name(),
                    got[at],
                    want[at]
                );
            }
        }
    }
    non_finite
}

#[test]
fn projection_matches_dense_on_every_shape() {
    // m in 0..=17 covers every remainder of the 4- and 8-row tiles, plus
    // two full 8-row tiles.
    for &k in &SUPPORTED_HASH_LENGTHS {
        for &n in &PATCH_LENS {
            assert_projection_matches_dense(0..=17, n, k, (k * 1000 + n) as u64, false);
        }
    }
}

#[test]
fn projection_matches_dense_on_signed_zeros_subnormals_and_overflow() {
    // Subnormal arithmetic is slow on x86, so the special operands cover
    // every tile remainder on the patch lengths up to 576 and every hash
    // width on one of them, not the whole cross product.
    let mut non_finite = 0usize;
    for &n in &PATCH_LENS[..4] {
        non_finite += assert_projection_matches_dense(0..=17, n, 256, 100 + n as u64, true);
    }
    for &k in &SUPPORTED_HASH_LENGTHS {
        non_finite += assert_projection_matches_dense(0..=17, 72, k, k as u64, true);
    }
    // The operands really do overflow: the comparison covered ±∞ / NaN.
    assert!(non_finite > 0, "special operands never overflowed");
}

#[test]
fn projection_of_a_signed_zero_row_is_positive_zero() {
    // The chain starts at +0.0, and +0.0 + ±0.0 = +0.0: an all-zero
    // row projects to +0.0 everywhere on every variant, as in the oracle.
    let (m, n, k) = (3, 27, 256);
    let rows: Vec<f32> = (0..m * n)
        .map(|i| if i % 2 == 0 { -0.0 } else { 0.0 })
        .collect();
    let matrix: Vec<f32> = (0..n * k).map(|i| operand(9, i, false)).collect();
    let panels = ProjectionPanels::from_row_major(&matrix, n, k);
    for &v in detected() {
        let mut got = vec![f32::NAN; m * k];
        project_into_with(v, &rows, m, n, &panels, &mut got);
        assert!(got.iter().all(|x| x.to_bits() == 0), "variant {}", v.name());
    }
}

#[test]
fn dispatched_projection_follows_the_forced_variant() {
    let (m, n, k) = (13, 72, 512);
    let rows: Vec<f32> = (0..m * n).map(|i| operand(3, i, true)).collect();
    let matrix: Vec<f32> = (0..n * k).map(|i| operand(4, i, true)).collect();
    let panels = ProjectionPanels::from_row_major(&matrix, n, k);
    let mut want = vec![0.0f32; m * k];
    matmul_dense_into(&rows, m, n, &matrix, k, &mut want);
    let initial = force_variant(Variant::Scalar).expect("scalar always detected");
    for &v in detected() {
        force_variant(v).expect("detected variant");
        let mut got = vec![0.0f32; m * k];
        project_into(&rows, m, n, &panels, &mut got);
        let same = got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits());
        assert!(same, "variant {}", v.name());
    }
    let _ = force_variant(initial);
}

#[test]
fn projection_contract_is_checked_in_release() {
    let panels = ProjectionPanels::from_row_major(&[0.5; 2 * 32], 2, 32);
    let short_rows = std::panic::catch_unwind(|| {
        let mut out = [0.0f32; 32];
        project_into(&[1.0; 3], 1, 2, &panels, &mut out);
    });
    assert!(
        short_rows.is_err(),
        "a rows buffer of the wrong size must panic"
    );
    let wrong_n = std::panic::catch_unwind(|| {
        let mut out = [0.0f32; 32];
        project_into(&[1.0; 3], 1, 3, &panels, &mut out);
    });
    assert!(
        wrong_n.is_err(),
        "panels for another patch length must panic"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_projections_match_dense_on_every_variant(
        m in 0usize..20,
        n in 1usize..300,
        width in 0usize..4,
        seed in 0u64..10_000,
        special in 0u8..2,
    ) {
        let k = SUPPORTED_HASH_LENGTHS[width];
        let rows: Vec<f32> = (0..m * n).map(|i| operand(seed, i, special == 1)).collect();
        let matrix: Vec<f32> = (0..n * k)
            .map(|i| operand(seed ^ 0xC0FFEE, i, special == 1))
            .collect();
        let panels = ProjectionPanels::from_row_major(&matrix, n, k);
        let mut want = vec![0.0f32; m * k];
        matmul_dense_into(&rows, m, n, &matrix, k, &mut want);
        for &v in detected() {
            let mut got = vec![f32::NAN; m * k];
            project_into_with(v, &rows, m, n, &panels, &mut got);
            let mismatch = (0..m * k).find(|&i| got[i].to_bits() != want[i].to_bits());
            prop_assert!(mismatch.is_none(), "variant {} element {:?}", v.name(), mismatch);
        }
    }
}
