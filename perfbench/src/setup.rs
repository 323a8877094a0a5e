//! The artifact pipeline every run sets up before it measures: seeded
//! inputs, compile, passes, artifact round trip, engine build and the
//! single-image reference logits that gate every output.

use std::sync::Arc;

use deepcam_core::ir::LayerIr;
use deepcam_core::passes::{apply, default_passes};
use deepcam_core::{CompiledModel, DeepCamEngine, EngineConfig, HashPlan};
use deepcam_models::scaled::{scaled_lenet5, scaled_vgg11};
use deepcam_models::Cnn;
use deepcam_tensor::rng::seeded_rng;
use deepcam_tensor::{Parallelism, Shape, Tensor};

use crate::inputs::image_pool;
use crate::trace::Tracer;

/// Worker count every engine is compiled with, fixed so that
/// `DEEPCAM_WORKERS` cannot change the work a run does.
pub const ENGINE_WORKERS: usize = 2;

/// The two fixed seeded models the workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `scaled_lenet5`, 1×28×28 inputs (the served model).
    Lenet5,
    /// `scaled_vgg11` at width 8, 3×32×32 inputs (the offline model).
    Vgg11,
}

impl ModelKind {
    /// Builds the model from its fixed seed (weights never depend on the
    /// workload seed).
    pub fn build(self) -> Cnn {
        match self {
            ModelKind::Lenet5 => scaled_lenet5(&mut seeded_rng(0x1E7E_0005), 10),
            ModelKind::Vgg11 => scaled_vgg11(&mut seeded_rng(0x0766_0011), 8, 10),
        }
    }
}

/// A model ready to run, with the inputs and reference outputs of one
/// workload seed.
pub struct Prepared {
    pub model: Cnn,
    pub engine: Arc<DeepCamEngine>,
    /// Per-image dims without the batch axis, e.g. `[1, 28, 28]`.
    pub image_dims: Vec<usize>,
    /// The input pool, one flat image per entry.
    pub images: Vec<Vec<f32>>,
    /// Single-image `infer` logits of every pool image.
    pub reference: Vec<Vec<f32>>,
    /// Index of each reference row's first maximum.
    pub labels: Vec<usize>,
    pub artifact_bytes: usize,
}

/// Index of the first maximum (the engine's accuracy rule).
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// A tensor holding `images` as one NCHW batch.
pub fn batch_tensor(images: &[&[f32]], dims: &[usize]) -> Tensor {
    let mut data = Vec::with_capacity(images.iter().map(|i| i.len()).sum());
    for img in images {
        data.extend_from_slice(img);
    }
    let mut shape = vec![images.len()];
    shape.extend_from_slice(dims);
    Tensor::from_vec(data, Shape::new(&shape)).expect("image data matches its dims")
}

/// Runs the pipeline, recording one `setup.<stage>` span per stage under
/// `parent`. `install` hands the built engine to its owner (a serving
/// registry, or a plain handle) before the reference logits are taken
/// through the returned handle.
pub fn prepare(
    kind: ModelKind,
    seed: u64,
    tracer: &Tracer,
    parent: u64,
    install: impl FnOnce(DeepCamEngine) -> Arc<DeepCamEngine>,
) -> Result<Prepared, String> {
    let p = Some(parent);
    let pool = tracer.span("setup.data", p, || {
        image_pool(seed, kind == ModelKind::Vgg11)
    });

    let (model, mut compiled) = tracer.span("setup.compile", p, || -> Result<_, String> {
        let model = kind.build();
        let ir = LayerIr::from_cnn(&model).map_err(|e| format!("lower: {e}"))?;
        let cfg = EngineConfig {
            plan: HashPlan::variable_for_dims(&ir.patch_lens()),
            parallelism: Parallelism::Fixed(ENGINE_WORKERS),
            ..EngineConfig::default()
        };
        let compiled = CompiledModel::compile(&model, cfg).map_err(|e| format!("compile: {e}"))?;
        Ok((model, compiled))
    })?;

    tracer
        .span("setup.passes", p, || {
            apply(&mut compiled, &default_passes())
        })
        .map_err(|e| format!("passes: {e}"))?;

    let (artifact_bytes, loaded) = tracer
        .span("setup.roundtrip", p, || {
            let bytes = compiled.to_bytes();
            CompiledModel::from_bytes(&bytes).map(|m| (bytes.len(), m))
        })
        .map_err(|e| format!("artifact: {e}"))?;

    let engine = tracer
        .span("setup.engine_build", p, || {
            DeepCamEngine::from_compiled(loaded)
        })
        .map_err(|e| format!("engine: {e}"))?;
    let engine = install(engine);

    let dims = pool.shape().dims().to_vec();
    let per_image: usize = dims[1..].iter().product();
    let images: Vec<Vec<f32>> = pool.data().chunks(per_image).map(<[f32]>::to_vec).collect();
    let image_dims = dims[1..].to_vec();

    let reference = tracer.span("setup.reference", p, || -> Result<Vec<Vec<f32>>, String> {
        images
            .iter()
            .map(|img| {
                engine
                    .infer(&batch_tensor(&[img], &image_dims))
                    .map(|logits| logits.data().to_vec())
                    .map_err(|e| format!("reference infer: {e}"))
            })
            .collect()
    })?;
    let labels = reference.iter().map(|r| argmax(r)).collect();

    Ok(Prepared {
        model,
        engine,
        image_dims,
        images,
        reference,
        labels,
        artifact_bytes,
    })
}

/// Whether `got` equals `want` bit for bit.
pub fn bit_exact(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_keeps_the_first_maximum() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), 1);
        assert_eq!(argmax(&[7.0, 7.0]), 0);
        assert_eq!(argmax(&[-3.0, -1.0, -2.0]), 1);
    }

    #[test]
    fn bit_exact_distinguishes_signed_zero() {
        assert!(bit_exact(&[1.0, 0.0], &[1.0, 0.0]));
        assert!(!bit_exact(&[1.0, 0.0], &[1.0, -0.0]));
        assert!(!bit_exact(&[1.0], &[1.0, 0.0]));
    }
}
