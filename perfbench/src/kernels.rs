//! Replays the four stages of every dot layer at the layer's batch-16
//! shapes through the same public kernels the engine calls —
//! `im2col_sharded`, `matmul_dense_into`, `pack_signs_into` and
//! `PackedHashes::hamming_into` — split over the engine's worker count.
//!
//! Like the engine, each worker walks its share of a layer's patch rows
//! in 64-row blocks: project the block, sign-pack its rows, then search
//! them. Each stage of each block is timed, and a stage's time is its
//! busy time averaged over the workers. Inputs are seeded random data of
//! the right shape: these kernels take the same time whatever the values.

use std::time::Instant;

use deepcam_core::CompiledModel;
use deepcam_hash::bitvec::pack_signs_into;
use deepcam_models::{Block, Cnn};
use deepcam_tensor::ops::conv::{im2col_sharded, Conv2dConfig};
use deepcam_tensor::rng::seeded_rng;
use deepcam_tensor::{matmul_dense_into, Shape, ThreadPool};

use crate::setup::ENGINE_WORKERS;
use crate::stats::median;
use crate::trace::Tracer;

/// Batch size every layer is replayed at.
const REPLAY_BATCH: usize = 16;

/// Rows per projection call, as in the engine.
const SUB_ROWS: usize = 64;

/// Median stage times of one dot layer, plus computed GEMM size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStages {
    pub im2col_ms: f64,
    pub project_ms: f64,
    pub signpack_ms: f64,
    pub hamming_ms: f64,
    /// `2·rows·n·k`, computed from shapes.
    pub project_gflop: f64,
    /// Operand and result bytes of the GEMM, computed from shapes.
    pub project_mb: f64,
}

impl LayerStages {
    pub fn total_ms(&self) -> f64 {
        self.im2col_ms + self.project_ms + self.signpack_ms + self.hamming_ms
    }
}

/// Conv geometry per dot layer in traversal order (`None` = linear).
fn dot_geometry(model: &Cnn) -> Vec<Option<Conv2dConfig>> {
    model
        .blocks
        .iter()
        .filter_map(|b| match b {
            Block::Conv(c) => Some(Some(c.cfg)),
            Block::Linear(_) => Some(None),
            _ => None,
        })
        .collect()
}

/// Replays every dot layer `reps` times and returns per-layer medians.
/// Each repetition records a `kernel.L<i>` span whose children are the
/// im2col call and every block's stages.
pub fn replay(
    model: &Cnn,
    compiled: &CompiledModel,
    reps: usize,
    tracer: &Tracer,
) -> Result<Vec<LayerStages>, String> {
    let geometry = dot_geometry(model);
    let tiles = compiled.tiles();
    if geometry.len() != tiles.len() || tiles.len() != compiled.ir.dots.len() {
        return Err("model blocks and compiled tiles disagree on the dot layers".to_string());
    }
    let pool = ThreadPool::global();
    let mut rng = seeded_rng(0x005E_ED0F_4E1A);
    let mut out = Vec::with_capacity(tiles.len());
    for ((conv, tile), dot) in geometry.iter().zip(&tiles).zip(&compiled.ir.dots) {
        let (n, k, m) = (tile.n, tile.k, tile.kernels());
        let input = match conv {
            Some(cfg) => {
                let hw = dot.shape.input_elems / cfg.in_channels;
                let side = (hw as f64).sqrt().round() as usize;
                if side * side * cfg.in_channels != dot.shape.input_elems {
                    return Err(format!("layer {} input is not square", tile.name));
                }
                Shape::new(&[REPLAY_BATCH, cfg.in_channels, side, side])
            }
            None => Shape::new(&[REPLAY_BATCH, n]),
        };
        let x = deepcam_tensor::init::normal(&mut rng, input, 0.0, 1.0);
        let proj = deepcam_tensor::init::normal(&mut rng, Shape::new(&[n, k]), 0.0, 1.0);
        let rows = match conv {
            Some(_) => REPLAY_BATCH * dot.shape.p,
            None => REPLAY_BATCH,
        };
        let words = tile.packed.words_per_row();
        let chunk_rows = rows.div_ceil(ENGINE_WORKERS);
        let mut samples = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..reps {
            let layer_id = tracer.reserve_id();
            let layer_start = Instant::now();
            let parent = Some(layer_id);
            let (patches, im2col_ms) = match conv {
                Some(cfg) => {
                    let (p, ms) = tracer.time(tracer.reserve_id(), "kernel.im2col", parent, || {
                        im2col_sharded(&x, cfg, ENGINE_WORKERS)
                    });
                    (p.map_err(|e| format!("im2col: {e}"))?, ms)
                }
                None => (x.clone(), 0.0),
            };
            let patches: &[f32] = patches.data();
            debug_assert_eq!(patches.len(), rows * n);
            // Each worker walks its contiguous row range in 64-row blocks,
            // as the engine does, timing each stage of each block.
            let per_worker = pool.run_indexed(ENGINE_WORKERS, |ci| {
                let (lo, hi) = (
                    (ci * chunk_rows).min(rows),
                    ((ci + 1) * chunk_rows).min(rows),
                );
                let mut projected = vec![0.0f32; SUB_ROWS * k];
                let mut query = vec![0u64; SUB_ROWS * words];
                let mut dists = vec![0u32; m];
                let mut ms = [0.0f64; 3];
                let mut spans = Vec::new();
                let mut r0 = lo;
                while r0 < hi {
                    let br = SUB_ROWS.min(hi - r0);
                    let t0 = Instant::now();
                    matmul_dense_into(
                        &patches[r0 * n..(r0 + br) * n],
                        br,
                        n,
                        proj.data(),
                        k,
                        &mut projected[..br * k],
                    );
                    let t1 = Instant::now();
                    for r in 0..br {
                        pack_signs_into(
                            &projected[r * k..(r + 1) * k],
                            &mut query[r * words..(r + 1) * words],
                        );
                    }
                    let t2 = Instant::now();
                    for r in 0..br {
                        tile.packed
                            .hamming_into(&query[r * words..(r + 1) * words], &mut dists);
                        std::hint::black_box(&dists);
                    }
                    let t3 = Instant::now();
                    for (i, (name, a, b)) in [
                        ("kernel.project", t0, t1),
                        ("kernel.signpack", t1, t2),
                        ("kernel.hamming", t2, t3),
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        ms[i] += (b - a).as_secs_f64() * 1e3;
                        spans.push(tracer.make(tracer.reserve_id(), name, a, b, parent, None));
                    }
                    r0 += br;
                }
                (ms, spans)
            });
            let mut stage_ms = [0.0f64; 3];
            for (ms, spans) in per_worker {
                for (acc, v) in stage_ms.iter_mut().zip(ms) {
                    // Mean busy time per worker: the stage's share of
                    // the layer's wall time.
                    *acc += v / ENGINE_WORKERS as f64;
                }
                tracer.extend(spans);
            }
            let [project_ms, signpack_ms, hamming_ms] = stage_ms;
            let name = format!("kernel.L{}", tile.layer_idx);
            let span = tracer.make(layer_id, &name, layer_start, Instant::now(), None, None);
            tracer.extend(vec![span]);
            for (s, v) in samples
                .iter_mut()
                .zip([im2col_ms, project_ms, signpack_ms, hamming_ms])
            {
                s.push(v);
            }
        }
        let [mut a, mut b, mut c, mut d] = samples;
        let (rows_f, n_f, k_f) = (rows as f64, n as f64, k as f64);
        out.push(LayerStages {
            im2col_ms: median(&mut a),
            project_ms: median(&mut b),
            signpack_ms: median(&mut c),
            hamming_ms: median(&mut d),
            project_gflop: 2.0 * rows_f * n_f * k_f / 1e9,
            project_mb: 4.0 * (rows_f * n_f + n_f * k_f + rows_f * k_f) / 1e6,
        });
    }
    Ok(out)
}
