//! Measures the packed-tile + cosine-LUT hot-path rewrite: wall-clock
//! of the fig5 VGG11 (width 8, k = 256) evaluation path through the
//! frozen pre-optimization datapath (`DeepCamEngine::infer_reference`,
//! the "before") vs the production fast path (`DeepCamEngine::infer`,
//! the "after"), single-threaded, and records the result with a
//! per-dot-layer breakdown plus a per-kernel-variant sweep (every SIMD
//! variant the host detects — each selects both the projection and the
//! Hamming kernel — re-gated for bit-identity) in `BENCH_hotpath.json`.
//!
//! Usage: `cargo run --release -p deepcam-bench --bin hotpath_speedup
//! [--out PATH] [--images N] [--repeats R] [--force]`
//!
//! The run first asserts the differential contract — both datapaths
//! must produce bit-identical logits — and only then times the sweep,
//! so the recorded speedup is guaranteed to compare equal computations.
//! Like `parallel_speedup`, the binary refuses to overwrite a committed
//! JSON measured on a bigger host unless `--force`.

use std::time::Instant;

use deepcam_bench::guard::{self, median_millis};
use deepcam_core::profile::{self, DotSample};
use deepcam_core::{simd, DeepCamEngine, EngineConfig, HashPlan};
use deepcam_models::scaled::scaled_vgg11;
use deepcam_tensor::rng::seeded_rng;
use deepcam_tensor::{init, Parallelism, Shape, Tensor};

/// The fig5 evaluation mini-batch size.
const BATCH: usize = 16;

struct LayerAgg {
    layer_idx: usize,
    rows: usize,
    m: usize,
    k: usize,
    seconds: f64,
}

fn aggregate(samples: &[DotSample]) -> Vec<LayerAgg> {
    let mut by_layer: Vec<LayerAgg> = Vec::new();
    for s in samples {
        match by_layer.iter_mut().find(|l| l.layer_idx == s.layer_idx) {
            Some(l) => {
                l.seconds += s.seconds;
                l.rows += s.rows;
            }
            None => by_layer.push(LayerAgg {
                layer_idx: s.layer_idx,
                rows: s.rows,
                m: s.m,
                k: s.k,
                seconds: s.seconds,
            }),
        }
    }
    by_layer.sort_by_key(|l| l.layer_idx);
    by_layer
}

fn image_chunk(images: &Tensor, start: usize, end: usize) -> Tensor {
    let sample: usize = images.shape().dims()[1..].iter().product();
    let mut dims = vec![end - start];
    dims.extend_from_slice(&images.shape().dims()[1..]);
    Tensor::from_vec(
        images.data()[start * sample..end * sample].to_vec(),
        Shape::new(&dims),
    )
    .expect("chunk volume consistent")
}

/// One full evaluation pass: mini-batched inference + argmax counting
/// (the shape of `evaluate` without its engine-private internals).
fn eval_pass(engine: &DeepCamEngine, images: &Tensor, reference: bool) -> usize {
    let n = images.shape().dim(0);
    let mut hits = 0usize;
    let mut start = 0usize;
    while start < n {
        let end = (start + BATCH).min(n);
        let chunk = image_chunk(images, start, end);
        let logits = if reference {
            engine.infer_reference(&chunk)
        } else {
            engine.infer(&chunk)
        }
        .expect("inference succeeds");
        let classes = logits.shape().dim(1);
        for row in 0..end - start {
            let slice = &logits.data()[row * classes..(row + 1) * classes];
            let (best, _) =
                slice
                    .iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |acc, (j, &v)| {
                        if v > acc.1 {
                            (j, v)
                        } else {
                            acc
                        }
                    });
            hits += usize::from(best == 0);
        }
        start = end;
    }
    hits
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |name: &str| -> Option<usize> {
        args.iter()
            .position(|a| a == name)
            .and_then(|p| args.get(p + 1))
            .and_then(|v| v.parse().ok())
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|p| args.get(p + 1).cloned())
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    let images = arg("--images").unwrap_or(16);
    let repeats = arg("--repeats").unwrap_or(3).max(1);
    let force = args.iter().any(|a| a == "--force");

    let host_cores = guard::host_cores();
    if !guard::check_overwrite(&out_path, host_cores, force).proceed() {
        return; // verdict printed; keeping the bigger-host JSON is success
    }

    println!("== Hot-path rewrite: packed CAM tiles + cosine LUTs, before/after ==");
    println!("host cores: {host_cores}, images: {images}, repeats: {repeats} (single-thread)");

    let mut rng = seeded_rng(0);
    let model = scaled_vgg11(&mut rng, 8, 10);
    let engine = DeepCamEngine::compile(
        &model,
        EngineConfig {
            plan: HashPlan::Uniform(256),
            parallelism: Parallelism::Serial,
            ..EngineConfig::default()
        },
    )
    .expect("engine compiles");
    let mut data_rng = seeded_rng(1);
    let batch = init::normal(&mut data_rng, Shape::new(&[images, 3, 32, 32]), 0.0, 1.0);

    // Differential gate: the timed paths must agree bit-for-bit.
    let fast = engine.infer(&batch).expect("fast inference succeeds");
    let reference = engine
        .infer_reference(&batch)
        .expect("reference inference succeeds");
    assert_eq!(
        fast.data(),
        reference.data(),
        "fast path must be bit-identical to the frozen reference"
    );
    println!("differential gate passed: logits bit-identical across datapaths");

    let time_pass = |use_reference: bool| -> f64 {
        let runs: Vec<f64> = (0..repeats)
            .map(|_| {
                let start = Instant::now();
                let hits = eval_pass(&engine, &batch, use_reference);
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(hits);
                elapsed
            })
            .collect();
        median_millis(runs)
    };

    // "Before": the frozen pre-rewrite datapath.
    let before_ms = time_pass(true);
    println!("reference (before): {before_ms:.1} ms");
    // "After": the packed-tile + LUT kernels on the default dispatch.
    let after_ms = time_pass(false);
    println!(
        "packed (after):     {after_ms:.1} ms  ({:.2}x vs reference)",
        before_ms / after_ms
    );

    // Per-kernel-variant sweep: pin each detected variant (projection
    // and Hamming kernels) in the dispatch table and re-time the same
    // fast path. Each variant is
    // re-gated against the reference logits first, so a variant row in
    // the JSON always denotes a bit-identical computation.
    let default_variant = simd::active();
    let mut variant_rows: Vec<(&'static str, f64)> = Vec::new();
    for &v in simd::detected() {
        simd::force_variant(v).expect("detected variant");
        let pinned = engine.infer(&batch).expect("fast inference succeeds");
        assert_eq!(
            pinned.data(),
            reference.data(),
            "kernel variant {} must stay bit-identical to the reference",
            v.name()
        );
        let ms = time_pass(false);
        println!(
            "  kernel {:<6}    {ms:.1} ms  ({:.2}x vs reference)",
            v.name(),
            before_ms / ms
        );
        variant_rows.push((v.name(), ms));
    }
    simd::force_variant(default_variant).expect("restore default variant");

    // Per-dot-layer breakdown via the engine profiler (one pass each).
    profile::enable();
    eval_pass(&engine, &batch, true);
    let before_layers = aggregate(&profile::disable_and_take());
    profile::enable();
    eval_pass(&engine, &batch, false);
    let after_layers = aggregate(&profile::disable_and_take());

    // Hand-rolled JSON: the vendored serde is a no-op shim (no
    // serializer exists offline). Schema documented in ROADMAP.md.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"experiment\": \"fig5 evaluation path, scaled VGG11 (width 8), k=256, \
         single-thread: reference datapath vs packed-tile + cosine-LUT hot path\",\n",
    );
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"images\": {images},\n"));
    json.push_str(&format!("  \"batch_size\": {BATCH},\n"));
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str("  \"bit_identical_to_reference\": true,\n");
    json.push_str(&format!("  \"before_ms\": {before_ms:.2},\n"));
    json.push_str(&format!("  \"after_ms\": {after_ms:.2},\n"));
    json.push_str(&format!("  \"speedup\": {:.3},\n", before_ms / after_ms));
    json.push_str(&format!(
        "  \"default_kernel\": \"{}\",\n",
        default_variant.name()
    ));
    json.push_str("  \"kernel_variants\": [\n");
    for (i, (name, ms)) in variant_rows.iter().enumerate() {
        let comma = if i + 1 == variant_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"variant\": \"{name}\", \"after_ms\": {ms:.2}, \
             \"speedup_vs_reference\": {:.3}}}{comma}\n",
            before_ms / ms
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"per_layer\": [\n");
    let layers = before_layers.len();
    for (i, b) in before_layers.iter().enumerate() {
        let a = after_layers
            .iter()
            .find(|l| l.layer_idx == b.layer_idx)
            .expect("both passes run the same layers");
        let comma = if i + 1 == layers { "" } else { "," };
        json.push_str(&format!(
            "    {{\"layer\": {}, \"patch_rows\": {}, \"kernels\": {}, \"k\": {}, \
             \"before_ms\": {:.3}, \"after_ms\": {:.3}, \"speedup\": {:.3}}}{comma}\n",
            b.layer_idx,
            b.rows,
            b.m,
            b.k,
            b.seconds * 1e3,
            a.seconds * 1e3,
            b.seconds / a.seconds.max(1e-12),
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_hotpath.json");
    println!("wrote {out_path}");
}
