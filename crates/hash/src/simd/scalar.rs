//! Portable kernels — the always-available fallback and the
//! differential oracle every SIMD variant is tested against.
//!
//! `u64::count_ones` compiles to the hardware `popcnt` instruction on
//! every target the workspace builds for (the `-C target-cpu=native`
//! baseline), so "scalar" here means one word per operation, not a
//! bit-twiddling loop. The word loop is 4×-unrolled; widths that are a
//! multiple of 256 bits (the paper's chunk granularity) take only the
//! unrolled path.
//!
//! The panel projection (`project_panels`) is plain Rust written to
//! auto-vectorize: a 4-row × 32-column accumulator tile per panel, each
//! lane an independent add chain. Every variant except AVX-512 runs it.

use crate::projection::{ProjectionPanels, PANEL_COLS};

/// Hamming distance of `query` against every `wpr`-word row of `slab`.
///
/// The slab/query/out contract (equal strides, one output slot per
/// row) is validated once by the dispatch layer in
/// [`super::hamming_range`] before any kernel runs.
pub(crate) fn hamming_range(slab: &[u64], wpr: usize, query: &[u64], out: &mut [u32]) {
    debug_assert_eq!(query.len(), wpr);
    debug_assert_eq!(slab.len(), out.len() * wpr);
    for (row_words, o) in slab.chunks_exact(wpr).zip(out.iter_mut()) {
        *o = hamming_pair(row_words, query);
    }
}

/// XOR + popcount over two equal-length word slices, 4×-unrolled.
///
/// Length equality is the caller's contract (checked by the public
/// entry points [`crate::packed::hamming_words`] and
/// [`super::hamming_pair`]); the `debug_assert!` documents it here.
#[inline]
pub(crate) fn hamming_pair(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0u32;
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        acc += (ca[0] ^ cb[0]).count_ones()
            + (ca[1] ^ cb[1]).count_ones()
            + (ca[2] ^ cb[2]).count_ones()
            + (ca[3] ^ cb[3]).count_ones();
    }
    for (&wa, &wb) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        acc += (wa ^ wb).count_ones();
    }
    acc
}

/// Projects `m` rows of `n` floats through `panels` into `out` (`[m, k]`
/// row-major). Panels are the outer loop, so one panel stays cache-hot
/// while every row block passes over it: 4-row tiles, then one narrower
/// tile over the same panel for the `m % 4` rest.
///
/// Each output element is one serial chain, `+0.0` then `+= x·b` over
/// ascending n — the chain of `deepcam_tensor::matmul_dense_into`, so
/// the bits agree. The row/panel/out contract is validated once by
/// [`super::project_into`].
// analyze: alloc-free
pub(crate) fn project_panels(
    rows: &[f32],
    m: usize,
    n: usize,
    panels: &ProjectionPanels,
    out: &mut [f32],
) {
    let k = panels.hash_len();
    let full = m - m % 4;
    for p in 0..panels.panels() {
        let (panel, col) = (panels.panel(p), p * PANEL_COLS);
        for i in (0..full).step_by(4) {
            tile::<4>(&rows[i * n..], n, panel, &mut out[i * k..], k, col);
        }
        let (rows, out) = (&rows[full * n..], &mut out[full * k..]);
        match m - full {
            1 => tile::<1>(rows, n, panel, out, k, col),
            2 => tile::<2>(rows, n, panel, out, k, col),
            3 => tile::<3>(rows, n, panel, out, k, col),
            _ => {}
        }
    }
}

/// `R` rows (`rows` is `[R, n]`) times one panel into columns
/// `col..col + 32` of `out` (`[R, k]`): an `R × 32` accumulator tile
/// that lives in registers across the whole n walk, each lane an
/// independent add chain.
// analyze: alloc-free
#[inline(always)]
fn tile<const R: usize>(
    rows: &[f32],
    n: usize,
    panel: &[[f32; PANEL_COLS]],
    out: &mut [f32],
    k: usize,
    col: usize,
) {
    let a: [&[f32]; R] = std::array::from_fn(|r| &rows[r * n..][..panel.len()]);
    let mut acc = [[0.0f32; PANEL_COLS]; R];
    for (kk, bv) in panel.iter().enumerate() {
        let x: [f32; R] = std::array::from_fn(|r| a[r][kk]);
        for l in 0..PANEL_COLS {
            for r in 0..R {
                acc[r][l] += x[r] * bv[l];
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let at = r * k + col;
        out[at..at + PANEL_COLS].copy_from_slice(acc_r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrolled_equals_wordwise_reference() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 16, 17] {
            let a: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .collect();
            let b: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x85EB_CA6B))
                .collect();
            let reference: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
            assert_eq!(hamming_pair(&a, &b), reference, "len {len}");
        }
    }

    #[test]
    fn range_is_one_pair_per_row() {
        let wpr = 3;
        let slab: Vec<u64> = (0..12u64).map(|i| i * 0x0101_0101).collect();
        let query = vec![0xF0F0u64; wpr];
        let mut out = vec![0u32; 4];
        hamming_range(&slab, wpr, &query, &mut out);
        for (row, &got) in out.iter().enumerate() {
            let want = hamming_pair(&slab[row * wpr..(row + 1) * wpr], &query);
            assert_eq!(got, want, "row {row}");
        }
    }
}
