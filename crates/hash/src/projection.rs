//! Gaussian random-projection matrices (the paper's `C ∈ R^{n×k}`).

use deepcam_tensor::rng::{seeded_rng, standard_normal};
use serde::{Deserialize, Serialize};

use crate::bitvec::BitVec;
use crate::error::HashError;
use crate::Result;

/// A dense Gaussian projection matrix `C ∈ R^{n×k}` with entries drawn
/// i.i.d. from `N(0, 1)`, stored row-major (`n` rows of `k` columns).
///
/// In the accelerator this matrix is *fixed at deploy time*: the software
/// context generator uses it to hash pre-trained weights and input images,
/// and the on-chip NVM crossbar of the transformation module encodes the
/// same values as synaptic weights for on-the-fly activation hashing
/// (paper §III-C). Determinism therefore matters — the matrix is
/// reconstructable from `(input_dim, hash_len, seed)`.
///
/// # Example
///
/// ```
/// use deepcam_hash::ProjectionMatrix;
///
/// let p = ProjectionMatrix::generate(16, 256, 1);
/// let h = p.hash(&[0.5; 16])?;
/// assert_eq!(h.len(), 256);
/// # Ok::<(), deepcam_hash::HashError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProjectionMatrix {
    input_dim: usize,
    hash_len: usize,
    seed: u64,
    /// Row-major `[input_dim * hash_len]`.
    data: Vec<f32>,
}

impl ProjectionMatrix {
    /// Samples a fresh `n×k` projection from `N(0,1)` with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `hash_len` is zero.
    pub fn generate(input_dim: usize, hash_len: usize, seed: u64) -> Self {
        assert!(input_dim > 0, "projection input_dim must be > 0");
        assert!(hash_len > 0, "projection hash_len must be > 0");
        let mut rng = seeded_rng(seed);
        let data = (0..input_dim * hash_len)
            .map(|_| standard_normal(&mut rng) as f32)
            .collect();
        ProjectionMatrix {
            input_dim,
            hash_len,
            seed,
            data,
        }
    }

    /// Input dimensionality `n`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hash width `k`.
    pub fn hash_len(&self) -> usize {
        self.hash_len
    }

    /// Seed the matrix was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Row `i` of the matrix (the hyperplane coefficients fed by input
    /// element `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= input_dim`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.hash_len..(i + 1) * self.hash_len]
    }

    /// Computes the raw projection `x·C ∈ R^k` (before the sign).
    ///
    /// Exposed separately because the on-chip crossbar model in
    /// `deepcam-core` needs the analog pre-sign values to inject device
    /// noise before the sense amplifiers take the sign.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::DimensionMismatch`] when `x.len() !=
    /// input_dim`.
    pub fn project(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.input_dim {
            return Err(HashError::DimensionMismatch {
                expected: self.input_dim,
                actual: x.len(),
            });
        }
        let mut acc = vec![0.0f32; self.hash_len];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (a, &c) in acc.iter_mut().zip(row.iter()) {
                *a += xi * c;
            }
        }
        Ok(acc)
    }

    /// Materializes the matrix as a row-major `[n, k]` tensor for
    /// batched projection via GEMM (`patches [P, n] · C [n, k]`), far
    /// faster than row-by-row [`ProjectionMatrix::project`] calls.
    ///
    /// The inference engine's fast path reads [`ProjectionPanels`]
    /// instead ([`ProjectionMatrix::to_panels`]); this layout serves the
    /// frozen reference datapath.
    pub fn to_tensor(&self) -> deepcam_tensor::Tensor {
        deepcam_tensor::Tensor::from_vec(
            self.data.clone(),
            deepcam_tensor::Shape::new(&[self.input_dim, self.hash_len]),
        )
        .expect("projection buffer volume matches its shape")
    }

    /// Repacks the matrix into [`ProjectionPanels`], the layout the
    /// batched projection kernels ([`crate::simd::project_into`]) read.
    ///
    /// # Panics
    ///
    /// Panics if `hash_len` is not a multiple of [`PANEL_COLS`] (every
    /// length in [`crate::SUPPORTED_HASH_LENGTHS`] is).
    pub fn to_panels(&self) -> ProjectionPanels {
        ProjectionPanels::from_row_major(&self.data, self.input_dim, self.hash_len)
    }

    /// Hashes `x` to `k` sign bits: `hash(x) = sign(x·C)`.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::DimensionMismatch`] when `x.len() !=
    /// input_dim`.
    pub fn hash(&self, x: &[f32]) -> Result<BitVec> {
        Ok(BitVec::from_signs(&self.project(x)?))
    }

    /// Hashes `x` and truncates to the first `k` bits (variable hash
    /// length via prefix truncation).
    ///
    /// # Errors
    ///
    /// Returns [`HashError::InvalidHashLength`] if `k > hash_len`, plus
    /// the errors of [`ProjectionMatrix::hash`].
    pub fn hash_prefix(&self, x: &[f32], k: usize) -> Result<BitVec> {
        if k > self.hash_len {
            return Err(HashError::InvalidHashLength {
                requested: k,
                max: self.hash_len,
            });
        }
        self.hash(x)?.prefix(k)
    }
}

/// Columns per projection panel: one AVX-512 register pair, and a
/// divisor of every supported hash length.
pub const PANEL_COLS: usize = 32;

/// A projection matrix `[n, k]` packed once into `k / 32` column panels,
/// each stored as `[n][32]` floats, panel after panel.
///
/// The batched projection walks one panel per output column block; in
/// this layout the 32 coefficients of one input element are contiguous,
/// and so is the whole walk over `n`, where the row-major matrix would
/// be read at a stride of `k` floats. The values are the row-major
/// matrix's, only reordered, so projecting through either layout gives
/// the same bits (`tests/simd_differential.rs` pins every kernel
/// variant against `deepcam_tensor::matmul_dense_into`).
///
/// # Example
///
/// ```
/// use deepcam_hash::projection::ProjectionMatrix;
///
/// let p = ProjectionMatrix::generate(3, 64, 1);
/// let panels = p.to_panels();
/// assert_eq!(panels.panels(), 2);
/// // Coefficient (i = 2, j = 40) lives in panel 1, column 8.
/// assert_eq!(panels.panel(1)[2][8], p.row(2)[40]);
/// ```
#[derive(Debug, Clone)]
pub struct ProjectionPanels {
    input_dim: usize,
    hash_len: usize,
    /// `hash_len / PANEL_COLS` panels of `input_dim` rows each.
    data: Vec<[f32; PANEL_COLS]>,
}

impl ProjectionPanels {
    /// Packs a row-major `[n, k]` matrix into panels.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a multiple of [`PANEL_COLS`] or
    /// `matrix.len() != n * k`.
    pub fn from_row_major(matrix: &[f32], n: usize, k: usize) -> Self {
        assert!(
            k.is_multiple_of(PANEL_COLS),
            "hash length {k} is not a multiple of {PANEL_COLS} columns"
        );
        assert_eq!(matrix.len(), n * k, "matrix buffer must be n*k");
        let mut data = Vec::with_capacity(n * k / PANEL_COLS);
        for col in (0..k).step_by(PANEL_COLS) {
            for row in matrix.chunks_exact(k) {
                let (block, _) = row[col..].as_chunks::<PANEL_COLS>();
                data.push(block[0]);
            }
        }
        ProjectionPanels {
            input_dim: n,
            hash_len: k,
            data,
        }
    }

    /// Input dimensionality `n` (rows of the source matrix).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hash width `k` (columns of the source matrix).
    pub fn hash_len(&self) -> usize {
        self.hash_len
    }

    /// Number of panels, `k / 32`.
    pub fn panels(&self) -> usize {
        self.hash_len / PANEL_COLS
    }

    /// Panel `p`: `n` rows of the 32 coefficients in columns
    /// `32p..32p + 32`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.panels()`.
    pub fn panel(&self, p: usize) -> &[[f32; PANEL_COLS]] {
        &self.data[p * self.input_dim..(p + 1) * self.input_dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = ProjectionMatrix::generate(8, 64, 5);
        let b = ProjectionMatrix::generate(8, 64, 5);
        assert_eq!(a.data, b.data);
        let c = ProjectionMatrix::generate(8, 64, 6);
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn entries_look_standard_normal() {
        let p = ProjectionMatrix::generate(100, 500, 7);
        let n = p.data.len() as f64;
        let mean = p.data.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = p
            .data
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn project_is_linear() {
        let p = ProjectionMatrix::generate(4, 32, 1);
        let x = [1.0, -2.0, 0.5, 3.0];
        let y = [0.3, 0.7, -1.1, 0.0];
        let px = p.project(&x).unwrap();
        let py = p.project(&y).unwrap();
        let sum: Vec<f32> = x.iter().zip(y.iter()).map(|(a, b)| a + b).collect();
        let psum = p.project(&sum).unwrap();
        for i in 0..32 {
            assert!((psum[i] - (px[i] + py[i])).abs() < 1e-4);
        }
    }

    #[test]
    fn hash_is_scale_invariant() {
        // sign(αx·C) == sign(x·C) for α > 0 — the geometric dot-product
        // only sees direction, magnitude goes through the norms.
        let p = ProjectionMatrix::generate(6, 128, 9);
        let x = [0.2, -0.4, 0.8, 0.1, -0.9, 0.5];
        let scaled: Vec<f32> = x.iter().map(|v| v * 37.5).collect();
        assert_eq!(p.hash(&x).unwrap(), p.hash(&scaled).unwrap());
    }

    #[test]
    fn opposite_vectors_hash_to_complements() {
        let p = ProjectionMatrix::generate(5, 256, 2);
        let x = [0.1, 0.9, -0.3, 0.7, -0.2];
        let neg: Vec<f32> = x.iter().map(|v| -v).collect();
        let hx = p.hash(&x).unwrap();
        let hn = p.hash(&neg).unwrap();
        // Sign flips everywhere except exact zeros of the projection
        // (probability ~0 for continuous draws).
        assert_eq!(hx.hamming(&hn).unwrap(), 256);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let p = ProjectionMatrix::generate(4, 16, 0);
        assert!(p.project(&[1.0; 3]).is_err());
        assert!(p.hash(&[1.0; 5]).is_err());
    }

    #[test]
    fn panels_reorder_the_row_major_matrix() {
        let p = ProjectionMatrix::generate(5, 96, 4);
        let panels = p.to_panels();
        assert_eq!((panels.input_dim(), panels.hash_len()), (5, 96));
        assert_eq!(panels.panels(), 3);
        for i in 0..5 {
            for j in 0..96 {
                let panel = panels.panel(j / PANEL_COLS);
                assert_eq!(panel[i][j % PANEL_COLS], p.row(i)[j]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn panels_reject_partial_column_blocks() {
        ProjectionMatrix::generate(2, 48, 0).to_panels();
    }

    #[test]
    fn hash_prefix_truncates() {
        let p = ProjectionMatrix::generate(4, 64, 3);
        let x = [0.4, -0.2, 0.9, 0.1];
        let full = p.hash(&x).unwrap();
        let pre = p.hash_prefix(&x, 40).unwrap();
        assert_eq!(pre.len(), 40);
        for i in 0..40 {
            assert_eq!(pre.get(i), full.get(i));
        }
        assert!(p.hash_prefix(&x, 65).is_err());
    }
}
