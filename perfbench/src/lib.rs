//! # perfbench
//!
//! The repository benchmark. One run sets up one workload from its seed,
//! measures it for a fixed time, checks every output bit for bit against
//! single-image reference logits, and reports either the end-to-end
//! metrics (untraced run) or the per-layer metrics (traced run). The
//! metric names, units and directions are listed in `BENCHMARK.json` at
//! the repository root; `README.md` beside this crate defines each one.
//!
//! The benchmark enters the program only through its stable public
//! calls: `CompiledModel::compile`, `passes::apply(default_passes())`,
//! the artifact bytes round trip, `DeepCamEngine::from_compiled`,
//! `infer` (reference logits only), `evaluate`,
//! `CamScheduler::run_ir_mapped`, `Server::bind`, `Runtime` and the
//! `deepcam_serve::protocol` frame functions.

pub mod inputs;
pub mod kernels;
pub mod serve_load;
pub mod setup;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepcam_core::sched::CamScheduler;
use deepcam_core::{Dataflow, DeepCamEngine, PerfReport};
use deepcam_serve::{ModelRegistry, Runtime, Server, ServerConfig, SessionConfig, SessionStats};
use deepcam_tensor::Tensor;

use inputs::{poisson_schedule, stream_seed, Schedule, Stream};
use serve_load::{run_phase, Conn, Pacing, PhaseOutcome, MODEL_ID};
use setup::{batch_tensor, prepare, ModelKind, Prepared};
use stats::{calm_rate, median, percentile, windowed_tail, Tail};
use trace::Tracer;

/// End-to-end metrics with their units, in report order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ok_share", "share"),
    ("images_per_s", "1/s"),
    ("modeled_cycles", "cycles"),
    ("modeled_energy_nj", "nJ"),
];

/// Dot layers of the deepest workload model (VGG11: 8 conv + 1 linear).
/// Layer metrics of a model with fewer dot layers read 0 beyond its last.
pub const MAX_DOT_LAYERS: usize = 9;

/// Per-layer metric prefixes of the serving stack.
const SERVE_LAYERS: [&str; 4] = ["session.", "protocol.", "server.", "loadgen."];

/// Setup stages, each reported as `setup.<stage>_ms`.
const SETUP_STAGES: [&str; 7] = [
    "data",
    "compile",
    "passes",
    "roundtrip",
    "engine_build",
    "reference",
    "warmup",
];

/// Per-layer metrics with their units, in report order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("session.batches", "count"),
        ("session.mean_occupancy", "count"),
        ("session.fill_ratio", "share"),
        ("session.p50_ms", "ms"),
        ("session.p99_ms", "ms"),
        ("session.rejected", "count"),
        ("session.failed", "count"),
        ("protocol.encode_us_p50", "us"),
        ("protocol.decode_us_p50", "us"),
        ("protocol.request_bytes", "bytes"),
        ("protocol.reply_bytes", "bytes"),
        ("server.refused", "count"),
        ("server.timed_out", "count"),
        ("server.protocol_errors", "count"),
        ("loadgen.p99_ms", "ms"),
        ("loadgen.lag_p99_ms", "ms"),
        ("loadgen.lag_max_ms", "ms"),
        ("loadgen.fail_share", "share"),
        ("engine.ms_per_image_b1", "ms"),
        ("engine.ms_per_image_b16", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for i in 0..MAX_DOT_LAYERS {
        for (stage, unit) in [
            ("im2col_ms", "ms"),
            ("project_ms", "ms"),
            ("signpack_ms", "ms"),
            ("hamming_ms", "ms"),
            ("project_gflop", "GFLOP"),
            ("project_mb", "MB"),
        ] {
            v.push((format!("kernel.L{i}.{stage}"), unit));
        }
    }
    v.push(("kernel.unattributed_share".to_string(), "share"));
    for stage in SETUP_STAGES {
        v.push((format!("setup.{stage}_ms"), "ms"));
    }
    v.push(("setup.artifact_bytes".to_string(), "bytes"));
    for i in 0..MAX_DOT_LAYERS {
        v.push((format!("sched.L{i}.cycles"), "cycles"));
        v.push((format!("sched.L{i}.search_energy_nj"), "nJ"));
    }
    v.push(("sched.mean_utilization".to_string(), "share"));
    v.push(("trace.overhead_share".to_string(), "share"));
    v
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Poisson arrivals at [`OPEN_RATE`] of single LeNet5
    /// images, then a closed-loop capacity phase.
    ServeLenet5,
    /// Offline `evaluate` of VGG11: batch-16 calls for throughput,
    /// single-image calls for latency.
    EvalVgg11,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeLenet5, Workload::EvalVgg11];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLenet5 => "serve_lenet5",
            Workload::EvalVgg11 => "eval_vgg11",
        }
    }

    fn serving(self) -> bool {
        self == Workload::ServeLenet5
    }

    fn model(self) -> ModelKind {
        match self {
            Workload::ServeLenet5 => ModelKind::Lenet5,
            Workload::EvalVgg11 => ModelKind::Vgg11,
        }
    }
}

/// Open-loop arrival rate of `serve_lenet5`, requests per second: about
/// a fifth of closed-loop capacity. Nearer saturation, queueing amplifies
/// any slowdown of the host: on a 2-vCPU VM, one competing busy process
/// raised p90 latency by 17% at 350 req/s, 67% at 500 and 134% at 800.
pub const OPEN_RATE: f64 = 350.0;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// An untraced `serve_lenet5` run alternates this many times between an
/// open-loop segment and a closed-loop one, so that latency and capacity
/// both sample the host across the whole run.
const SERVE_ROUNDS: usize = 5;

/// Share of each round spent in the open loop; the rest measures
/// capacity in the closed loop.
const OPEN_SHARE: f64 = 0.8;

/// Windows open-loop latency is summarized over: about 175 arrivals, so
/// a window's p90 has 17 samples beyond it.
const LATENCY_WINDOW_S: f64 = 0.5;

/// Windows the offline figures are summarized over: about four batch
/// calls and 32 single-image calls.
const EVAL_WINDOW_S: f64 = 1.0;

/// Closed-loop capacity is counted over windows of this length (about
/// 450 replies).
const CAPACITY_WINDOW_S: f64 = 0.25;

/// Requests the closed loop keeps in flight. At most the session queue
/// capacity, so the closed loop can never be refused for backpressure.
pub const CLOSED_IN_FLIGHT: usize = 32;

/// Leading share of the closed phase excluded from the capacity window
/// (the pipeline filling up).
const CLOSED_RAMP_SHARE: f64 = 0.1;

/// Mini-batch size `evaluate` runs at.
pub const EVAL_BATCH: usize = 16;

/// Images per `evaluate` call: five mini-batches, so that a call lasts
/// long enough (about 150 ms for VGG11) that one scheduler hiccup of the
/// host is a small part of it.
const EVAL_CALL_IMAGES: usize = 5 * EVAL_BATCH;

/// Single-image `evaluate` calls after each batch call. Their latency
/// is the offline workload's `p50_ms`/`p90_ms`, a figure of its own
/// beside the batch throughput.
const EVAL_SINGLES: usize = 8;

/// Untraced and traced segments alternate this many times in a traced
/// run, replaying one schedule, so that both see the same traffic and
/// the same drift of the host.
const TRACE_ROUNDS: usize = 4;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time (set-up excluded).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out_dir: Option<std::path::PathBuf>,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Host and run metadata as a JSON object.
    pub meta_json: String,
}

/// Everything set up for one workload.
struct Rig {
    prep: Prepared,
    serve: Option<ServeRig>,
    /// Inputs of each `evaluate` call with their reference-argmax labels.
    batches: Vec<(Tensor, Vec<usize>)>,
}

struct ServeRig {
    runtime: Arc<Runtime>,
    server: Server,
    conn: Conn,
}

/// Checks a phase's replies; any logits mismatch fails the run.
fn check_phase(what: &str, out: &PhaseOutcome) -> Result<(), String> {
    if out.mismatches > 0 {
        return Err(format!(
            "{what}: {} served replies differ from the reference logits",
            out.mismatches
        ));
    }
    Ok(())
}

fn set_up(opts: &Options, tracer: &Tracer, parent: u64) -> Result<Rig, String> {
    let serving = opts.workload.serving();
    let registry = Arc::new(ModelRegistry::new());
    let prep = prepare(opts.workload.model(), opts.seed, tracer, parent, |engine| {
        if serving {
            registry.register(MODEL_ID, engine)
        } else {
            Arc::new(engine)
        }
    })?;
    inputs::check_digest(opts.workload.name(), opts.seed, &prep.reference)?;
    tracer.span("setup.warmup", Some(parent), || {
        if serving {
            let runtime = Arc::new(Runtime::new(registry, SessionConfig::default()));
            let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime), ServerConfig::default())
                .map_err(|e| format!("bind: {e}"))?;
            let mut conn = Conn::connect(server.local_addr())?;
            let warm = run_phase(
                &mut conn,
                &Pacing::Closed {
                    in_flight: CLOSED_IN_FLIGHT,
                    duration: Duration::from_millis(200),
                    first_image: 0,
                },
                &prep.image_dims,
                &prep.images,
                &prep.reference,
                None,
            );
            check_phase("warm-up", &warm)?;
            if warm.ok == 0 || warm.failed() > 0 {
                return Err(format!(
                    "warm-up: {} of {} requests failed",
                    warm.failed(),
                    warm.sent
                ));
            }
            Ok(Rig {
                prep,
                serve: Some(ServeRig {
                    runtime,
                    server,
                    conn,
                }),
                batches: Vec::new(),
            })
        } else {
            let batches: Vec<(Tensor, Vec<usize>)> = (0..prep.images.len() / EVAL_CALL_IMAGES)
                .map(|b| {
                    let range = b * EVAL_CALL_IMAGES..(b + 1) * EVAL_CALL_IMAGES;
                    let imgs: Vec<&[f32]> = prep.images[range.clone()]
                        .iter()
                        .map(Vec::as_slice)
                        .collect();
                    (
                        batch_tensor(&imgs, &prep.image_dims),
                        prep.labels[range].to_vec(),
                    )
                })
                .collect();
            let (x, labels) = batches
                .first()
                .ok_or("input pool is smaller than one call")?;
            check_accuracy(prep.engine.evaluate(x, labels, EVAL_BATCH))?;
            Ok(Rig {
                prep,
                serve: None,
                batches,
            })
        }
    })
}

/// `evaluate` against reference-argmax labels must score exactly 1.0:
/// every image's winning class equals the reference's.
fn check_accuracy(result: deepcam_core::Result<f32>) -> Result<(), String> {
    match result {
        Ok(1.0) => Ok(()),
        Ok(acc) => Err(format!(
            "evaluate scored {acc} against the reference labels; some logits changed"
        )),
        Err(e) => Err(format!("evaluate: {e}")),
    }
}

/// Peak resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Modeled CAM cost of one image under the artifact's own mapping.
fn modeled(engine: &DeepCamEngine) -> Result<PerfReport, String> {
    let compiled = engine.compiled();
    let mapping = compiled
        .mapping
        .as_ref()
        .ok_or("the artifact carries no array mapping")?;
    CamScheduler::new(64, Dataflow::ActivationStationary)
        .and_then(|s| s.run_ir_mapped(&compiled.ir, &compiled.binding, mapping, "variable"))
        .map_err(|e| format!("run_ir_mapped: {e}"))
}

/// Offline evaluation for `seconds`: each batch call over the next
/// input batch is followed by [`EVAL_SINGLES`] single-image calls.
struct EvalOutcome {
    /// Batch calls: (start in seconds since the phase began, call ms).
    batch_calls: Vec<(f64, f64)>,
    /// Single-image calls, likewise.
    single_calls: Vec<(f64, f64)>,
    /// Images scored by successful batch calls.
    images: u64,
    /// Time spent in successful batch calls, seconds.
    batch_s: f64,
    failed: u64,
}

impl EvalOutcome {
    fn calls(&self) -> u64 {
        (self.batch_calls.len() + self.single_calls.len()) as u64
    }

    fn images_per_s(&self) -> f64 {
        self.images as f64 / self.batch_s
    }
}

fn run_eval(rig: &Rig, seconds: f64, tracer: Option<&Tracer>) -> Result<EvalOutcome, String> {
    let prep = &rig.prep;
    let mut out = EvalOutcome {
        batch_calls: Vec::new(),
        single_calls: Vec::new(),
        images: 0,
        batch_s: 0.0,
        failed: 0,
    };
    let t0 = Instant::now();
    // Times one call; `None` when `evaluate` returned an error.
    let call = |x: &Tensor, labels: &[usize], batch: usize, name: &str| {
        let start = Instant::now();
        let result = prep.engine.evaluate(x, labels, batch);
        let end = Instant::now();
        if let Some(t) = tracer {
            t.record(name, start, end);
        }
        match result {
            Err(_) => Ok(None),
            ok => check_accuracy(ok).map(|()| {
                Some((
                    (start - t0).as_secs_f64(),
                    (end - start).as_secs_f64() * 1e3,
                ))
            }),
        }
    };
    let mut next_single = 0usize;
    for (x, labels) in rig.batches.iter().cycle() {
        if t0.elapsed().as_secs_f64() >= seconds && !out.batch_calls.is_empty() {
            break;
        }
        match call(x, labels, EVAL_BATCH, "engine.evaluate")? {
            Some(c) => {
                out.batch_calls.push(c);
                out.batch_s += c.1 / 1e3;
                out.images += labels.len() as u64;
            }
            None => out.failed += 1,
        }
        for _ in 0..EVAL_SINGLES {
            let i = next_single % prep.images.len();
            next_single += 1;
            let x = batch_tensor(&[prep.images[i].as_slice()], &prep.image_dims);
            match call(&x, &prep.labels[i..=i], 1, "engine.evaluate_single")? {
                Some(c) => out.single_calls.push(c),
                None => out.failed += 1,
            }
        }
    }
    Ok(out)
}

/// The open-loop schedule of a run, for a phase of `seconds`.
fn open_schedule(opts: &Options, seconds: f64, pool: usize) -> Schedule {
    poisson_schedule(
        stream_seed(opts.seed, Stream::Schedule),
        OPEN_RATE,
        seconds,
        pool,
    )
}

/// Runs `schedule` open-loop on the rig's connection.
fn open_phase(
    rig: &mut Rig,
    schedule: &Schedule,
    tracer: Option<&Tracer>,
) -> Result<PhaseOutcome, String> {
    let serve = rig.serve.as_mut().expect("serving workload has a server");
    let mut out = run_phase(
        &mut serve.conn,
        &Pacing::Open(schedule),
        &rig.prep.image_dims,
        &rig.prep.images,
        &rig.prep.reference,
        tracer,
    );
    if let Some(t) = tracer {
        t.extend(std::mem::take(&mut out.spans));
    }
    check_phase("open loop", &out)?;
    Ok(out)
}

/// Groups `(time in seconds, value)` samples into consecutive windows
/// of `window_s` by time.
fn by_window(samples: impl IntoIterator<Item = (f64, f64)>, window_s: f64) -> Vec<Vec<f64>> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (t, v) in samples {
        let w = (t / window_s) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(v);
    }
    windows
}

/// Open-loop latencies grouped by due time into [`LATENCY_WINDOW_S`]
/// windows.
fn latency_windows(out: &PhaseOutcome, schedule: &Schedule) -> Vec<Vec<f64>> {
    by_window(
        out.latency_ms
            .iter()
            .map(|&(i, ms)| (schedule.due_s[i], ms)),
        LATENCY_WINDOW_S,
    )
}

fn tail_of(what: &str, windows: &mut [Vec<f64>]) -> Result<Tail, String> {
    windowed_tail(windows).ok_or_else(|| format!("no {what} succeeded"))
}

/// The reply rate within each [`CAPACITY_WINDOW_S`] window of a closed
/// segment of `seconds`, after its ramp: replies after the window's
/// first one, over the time from its first reply to its last.
fn capacity_windows(closed: &PhaseOutcome, seconds: f64) -> Vec<f64> {
    let t0 = closed.started.expect("phase ran");
    let ramp = seconds * CLOSED_RAMP_SHARE;
    let n_windows = (((seconds - ramp) / CAPACITY_WINDOW_S).floor() as usize).max(1);
    let mut windows = vec![Vec::new(); n_windows];
    for t in &closed.reply_at {
        let at = t.saturating_duration_since(t0).as_secs_f64() - ramp;
        let w = at / CAPACITY_WINDOW_S;
        if w >= 0.0 && (w as usize) < n_windows {
            windows[w as usize].push(at);
        }
    }
    windows
        .iter()
        .map(|w| match (w.first(), w.last()) {
            (Some(first), Some(last)) if last > first => (w.len() - 1) as f64 / (last - first),
            _ => 0.0,
        })
        .collect()
}

/// Offline figures: the calm-end window tail of single-image call time,
/// and the calm end of per-window batch-call throughput, in images per
/// second of call time.
fn eval_figures(eval: &EvalOutcome) -> Result<(Tail, f64), String> {
    let mut rates: Vec<f64> = by_window(eval.batch_calls.iter().copied(), EVAL_WINDOW_S)
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| (w.len() * EVAL_CALL_IMAGES) as f64 * 1e3 / w.iter().sum::<f64>())
        .collect();
    if rates.is_empty() {
        return Err("no batch evaluate call succeeded".to_string());
    }
    let tail = tail_of(
        "single-image evaluate call",
        &mut by_window(eval.single_calls.iter().copied(), EVAL_WINDOW_S),
    )?;
    Ok((tail, calm_rate(&mut rates)))
}

/// Host and run metadata, as one JSON object.
fn meta_json(opts: &Options, rig: &Rig) -> Result<String, String> {
    let core = match &rig.serve {
        Some(s) => s.server.core_name(),
        None => {
            // The offline workload serves nothing; a probe server on an
            // empty runtime reports which core this host would run.
            let runtime = Arc::new(Runtime::new(
                Arc::new(ModelRegistry::new()),
                SessionConfig::default(),
            ));
            Server::bind("127.0.0.1:0", runtime, ServerConfig::default())
                .map_err(|e| format!("probe bind: {e}"))?
                .core_name()
        }
    };
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env = String::new();
    for key in ["DEEPCAM_WORKERS", "DEEPCAM_SIMD", "DEEPCAM_SERVE_CORE"] {
        if let Ok(v) = std::env::var(key) {
            if !env.is_empty() {
                env.push_str(", ");
            }
            env.push_str(&format!("{}: {}", json_str(key), json_str(&v)));
        }
    }
    Ok(format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"simd\": {}, \"serve_core\": {}, \"rustc\": {}, \"engine_workers\": {}, \"env\": {{{env}}}}}",
        json_str(opts.workload.name()),
        opts.seed,
        opts.seconds,
        opts.trace,
        json_str(deepcam_core::simd::active().name()),
        json_str(core),
        json_str(&rustc),
        rig.prep.engine.config().parallelism.resolve(),
    ))
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sets up, measures and checks one run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        // The previous rig (and its server) is dropped outside the timing.
        drop(rig.take());
        let root = tracer.reserve_id();
        let (r, ms) = tracer.time(root, "setup", None, || set_up(opts, &tracer, root));
        rig = Some(r?);
        setup_s.push(ms / 1e3);
    }
    let mut rig = rig.expect("set up at least once");
    let meta = meta_json(opts, &rig)?;
    let report = modeled(&rig.prep.engine)?;
    let mut m: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let (attempted, failed);

    if !opts.trace {
        m.insert("setup_s".into(), (median(&mut setup_s), "s"));
        m.insert(
            "modeled_cycles".into(),
            (report.total_cycles as f64, "cycles"),
        );
        m.insert(
            "modeled_energy_nj".into(),
            (report.total_energy_j * 1e9, "nJ"),
        );
        if opts.workload.serving() {
            let round_s = opts.seconds / SERVE_ROUNDS as f64;
            let (open_s, closed_s) = (round_s * OPEN_SHARE, round_s * (1.0 - OPEN_SHARE));
            let pool = rig.prep.images.len();
            let schedule = open_schedule(opts, open_s, pool);
            let closed_pacing = Pacing::Closed {
                in_flight: CLOSED_IN_FLIGHT,
                duration: Duration::from_secs_f64(closed_s),
                first_image: (stream_seed(opts.seed, Stream::Closed) % pool as u64) as usize,
            };
            let (mut latency, mut capacity) = (Vec::new(), Vec::new());
            let (mut sent, mut ok, mut fails) = (0, 0, 0);
            for _ in 0..SERVE_ROUNDS {
                let open = open_phase(&mut rig, &schedule, None)?;
                latency.extend(latency_windows(&open, &schedule));
                let serve = rig.serve.as_mut().expect("serving workload");
                let closed = run_phase(
                    &mut serve.conn,
                    &closed_pacing,
                    &rig.prep.image_dims,
                    &rig.prep.images,
                    &rig.prep.reference,
                    None,
                );
                check_phase("closed loop", &closed)?;
                capacity.extend(capacity_windows(&closed, closed_s));
                sent += open.sent + closed.sent;
                ok += open.ok + closed.ok;
                fails += open.failed() + closed.failed();
            }
            let tail = tail_of("open-loop request", &mut latency)?;
            attempted = sent;
            failed = fails;
            m.insert("p50_ms".into(), (tail.p50, "ms"));
            m.insert("p90_ms".into(), (tail.p90, "ms"));
            m.insert("images_per_s".into(), (calm_rate(&mut capacity), "1/s"));
            m.insert(
                "ok_share".into(),
                (ok as f64 / attempted.max(1) as f64, "share"),
            );
        } else {
            let eval = run_eval(&rig, opts.seconds, None)?;
            let (tail, ips) = eval_figures(&eval)?;
            attempted = eval.calls() + eval.failed;
            failed = eval.failed;
            m.insert("p50_ms".into(), (tail.p50, "ms"));
            m.insert("p90_ms".into(), (tail.p90, "ms"));
            m.insert("images_per_s".into(), (ips, "1/s"));
            m.insert(
                "ok_share".into(),
                (eval.calls() as f64 / attempted as f64, "share"),
            );
        }
        m.insert("peak_rss_mb".into(), (peak_rss_mb()?, "MB"));
    } else {
        let (a, f) = traced(opts, &mut rig, &tracer, &mut m)?;
        attempted = a;
        failed = f;
        let mut by_stage: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in tracer.spans() {
            if let Some(stage) = s.name.strip_prefix("setup.") {
                by_stage
                    .entry(format!("setup.{stage}_ms"))
                    .or_default()
                    .push((s.end_ns - s.start_ns) as f64 / 1e6);
            }
        }
        for (name, mut v) in by_stage {
            m.insert(name, (median(&mut v), "ms"));
        }
        m.insert(
            "setup.artifact_bytes".into(),
            (rig.prep.artifact_bytes as f64, "bytes"),
        );
        for i in 0..MAX_DOT_LAYERS {
            let layer = report.layers.get(i);
            m.insert(
                format!("sched.L{i}.cycles"),
                (layer.map_or(0.0, |l| l.cycles as f64), "cycles"),
            );
            m.insert(
                format!("sched.L{i}.search_energy_nj"),
                (layer.map_or(0.0, |l| l.energy.cam_search * 1e9), "nJ"),
            );
        }
        m.insert(
            "sched.mean_utilization".into(),
            (report.mean_utilization(), "share"),
        );
        if let Some(dir) = &opts.out_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!(
                "trace-{}-seed{}.json",
                opts.workload.name(),
                opts.seed
            ));
            tracer
                .write_json(&path, &meta)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    let expected: Vec<(String, &str)> = if opts.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let got: Vec<(String, &str)> = m.iter().map(|(k, v)| (k.clone(), v.1)).collect();
    let mut want = expected.clone();
    want.sort();
    if got != want {
        return Err(format!(
            "internal: reported metrics {got:?} differ from {want:?}"
        ));
    }
    if let Some((name, _)) = m.iter().find(|(_, v)| !v.0.is_finite()) {
        return Err(format!("metric {name} is not finite"));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        meta_json: meta,
    })
}

/// Session and server counters summed over the traced segments.
#[derive(Default)]
struct TracedCounters {
    batches: u64,
    images: f64,
    rejected: u64,
    failed: u64,
    refused: u64,
    timed_out: u64,
    protocol_errors: u64,
}

/// The traced run: [`TRACE_ROUNDS`] rounds of an untraced then a traced
/// segment of the same schedule (or of `evaluate` calls), whose ratio is
/// `trace.overhead_share`, then the in-process engine and kernel probes.
/// Returns `(attempted, failed)`.
fn traced(
    opts: &Options,
    rig: &mut Rig,
    tracer: &Tracer,
    m: &mut BTreeMap<String, (f64, &'static str)>,
) -> Result<(u64, u64), String> {
    let segment_s = opts.seconds / (2 * TRACE_ROUNDS) as f64;
    let mut overhead = Vec::with_capacity(TRACE_ROUNDS);
    let (mut attempted, mut failed) = (0, 0);
    if opts.workload.serving() {
        let schedule = open_schedule(opts, segment_s, rig.prep.images.len());
        let mut plain_windows = Vec::new();
        let mut c = TracedCounters::default();
        let (mut enc, mut dec, mut lag) = (Vec::new(), Vec::new(), Vec::new());
        let (mut request_bytes, mut reply_bytes) = (0, 0);
        let mut session = None;
        for _ in 0..TRACE_ROUNDS {
            let plain = open_phase(rig, &schedule, None)?;
            let mut windows = latency_windows(&plain, &schedule);
            let plain_p50 = tail_of("untraced request", &mut windows)?.p50;
            plain_windows.extend(windows);

            let stats = |rig: &Rig| {
                let serve = rig.serve.as_ref().expect("serving workload");
                serve
                    .runtime
                    .stats(MODEL_ID)
                    .map(|s| (s, serve.server.stats()))
                    .map_err(|e| e.to_string())
            };
            let (before, server_before) = stats(rig)?;
            let traced = open_phase(rig, &schedule, Some(tracer))?;
            let (after, server_after) = stats(rig)?;
            let traced_p50 =
                tail_of("traced request", &mut latency_windows(&traced, &schedule))?.p50;
            overhead.push(traced_p50 / plain_p50 - 1.0);

            c.batches += after.batches - before.batches;
            c.images += after.mean_occupancy * after.batches as f64
                - before.mean_occupancy * before.batches as f64;
            c.rejected += after.rejected - before.rejected;
            c.failed += after.failed - before.failed;
            c.refused += server_after.refused - server_before.refused;
            c.timed_out += server_after.timed_out - server_before.timed_out;
            c.protocol_errors += server_after.protocol_errors - server_before.protocol_errors;
            request_bytes += traced.request_frame_bytes;
            reply_bytes += traced.reply_frame_bytes;
            enc.extend_from_slice(&traced.encode_us);
            dec.extend_from_slice(&traced.decode_us);
            lag.extend_from_slice(&traced.lag_ms);
            attempted += plain.sent + traced.sent;
            failed += plain.failed() + traced.failed();
            session = Some(after);
        }
        let session = session.expect("at least one round");
        let loadgen_fail = failed as f64 / attempted.max(1) as f64;
        let p99 = tail_of("untraced request", &mut plain_windows)?.p99;
        m.insert("loadgen.p99_ms".into(), (p99, "ms"));
        session_metrics(m, &c, &session);
        m.insert("server.refused".into(), (c.refused as f64, "count"));
        m.insert("server.timed_out".into(), (c.timed_out as f64, "count"));
        m.insert(
            "server.protocol_errors".into(),
            (c.protocol_errors as f64, "count"),
        );
        let per_frame = |bytes: u64, n: usize| bytes as f64 / n.max(1) as f64;
        m.insert(
            "protocol.request_bytes".into(),
            (per_frame(request_bytes, enc.len()), "bytes"),
        );
        m.insert(
            "protocol.reply_bytes".into(),
            (per_frame(reply_bytes, dec.len()), "bytes"),
        );
        m.insert("protocol.encode_us_p50".into(), (median(&mut enc), "us"));
        m.insert("protocol.decode_us_p50".into(), (median(&mut dec), "us"));
        stats::sort(&mut lag);
        m.insert(
            "loadgen.lag_p99_ms".into(),
            (
                if lag.is_empty() {
                    0.0
                } else {
                    percentile(&lag, 0.99)
                },
                "ms",
            ),
        );
        m.insert(
            "loadgen.lag_max_ms".into(),
            (lag.last().copied().unwrap_or(0.0), "ms"),
        );
        m.insert("loadgen.fail_share".into(), (loadgen_fail, "share"));
    } else {
        for _ in 0..TRACE_ROUNDS {
            let plain = run_eval(rig, segment_s, None)?;
            let traced = run_eval(rig, segment_s, Some(tracer))?;
            overhead.push(plain.images_per_s() / traced.images_per_s() - 1.0);
            attempted += plain.calls() + traced.calls() + plain.failed + traced.failed;
            failed += plain.failed + traced.failed;
        }
        // No serve layer runs offline: those metrics read 0.
        for (name, unit) in per_layer_metrics() {
            if SERVE_LAYERS.iter().any(|l| name.starts_with(l)) {
                m.insert(name, (0.0, unit));
            }
        }
    }
    m.insert(
        "trace.overhead_share".into(),
        (median(&mut overhead), "share"),
    );

    // In-process engine cost per image at batch 1 and at batch 16.
    let prep = &rig.prep;
    let engine = &prep.engine;
    let probe = |batch: usize, reps: usize, name: &str| -> Result<f64, String> {
        let imgs: Vec<&[f32]> = prep.images[..batch].iter().map(Vec::as_slice).collect();
        let x = batch_tensor(&imgs, &prep.image_dims);
        let labels = &prep.labels[..batch];
        let mut ms = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            let r = engine.evaluate(&x, labels, batch);
            let end = Instant::now();
            tracer.record(name, start, end);
            check_accuracy(r)?;
            ms.push((end - start).as_secs_f64() * 1e3);
        }
        Ok(median(&mut ms))
    };
    let b1 = probe(1, 64, "engine.evaluate_b1")?;
    let b16 = probe(EVAL_BATCH, 16, "engine.evaluate_b16")?;
    m.insert("engine.ms_per_image_b1".into(), (b1, "ms"));
    m.insert(
        "engine.ms_per_image_b16".into(),
        (b16 / EVAL_BATCH as f64, "ms"),
    );

    let layers = kernels::replay(&prep.model, engine.compiled(), 5, tracer)?;
    let attributed: f64 = layers.iter().map(kernels::LayerStages::total_ms).sum();
    m.insert(
        "kernel.unattributed_share".into(),
        (1.0 - attributed / b16, "share"),
    );
    for i in 0..MAX_DOT_LAYERS {
        let l = layers.get(i).copied().unwrap_or_default();
        for (stage, value, unit) in [
            ("im2col_ms", l.im2col_ms, "ms"),
            ("project_ms", l.project_ms, "ms"),
            ("signpack_ms", l.signpack_ms, "ms"),
            ("hamming_ms", l.hamming_ms, "ms"),
            ("project_gflop", l.project_gflop, "GFLOP"),
            ("project_mb", l.project_mb, "MB"),
        ] {
            m.insert(format!("kernel.L{i}.{stage}"), (value, unit));
        }
    }
    Ok((attempted, failed))
}

/// Session metrics. The counters are sums over the traced segments; the
/// two latency percentiles are the session's own cumulative histogram
/// (`Runtime::stats` exposes no other), which covers every request the
/// session served since set-up: warm-up, untraced and traced segments.
fn session_metrics(
    m: &mut BTreeMap<String, (f64, &'static str)>,
    c: &TracedCounters,
    last: &SessionStats,
) {
    let occupancy = if c.batches == 0 {
        0.0
    } else {
        c.images / c.batches as f64
    };
    let max_batch = SessionConfig::default().max_batch as f64;
    m.insert("session.batches".into(), (c.batches as f64, "count"));
    m.insert("session.mean_occupancy".into(), (occupancy, "count"));
    m.insert(
        "session.fill_ratio".into(),
        (occupancy / max_batch, "share"),
    );
    m.insert("session.p50_ms".into(), (last.p50_latency_ms, "ms"));
    m.insert("session.p99_ms".into(), (last.p99_latency_ms, "ms"));
    m.insert("session.rejected".into(), (c.rejected as f64, "count"));
    m.insert("session.failed".into(), (c.failed as f64, "count"));
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_mismatch_fails_the_run() {
        let mut phase = PhaseOutcome::default();
        assert!(check_phase("open loop", &phase).is_ok());
        phase.mismatches = 1;
        assert!(check_phase("open loop", &phase).is_err());
        assert!(check_accuracy(Ok(1.0)).is_ok());
        assert!(check_accuracy(Ok(0.9375)).is_err());
    }

    #[test]
    fn closed_loop_fits_the_session_queue() {
        assert!(CLOSED_IN_FLIGHT <= SessionConfig::default().queue_capacity);
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let q = rest.find('"').expect("value opens") + 1;
                        rest[q..q + rest[q..].find('"').expect("value closes")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), layers);
        let workloads: Vec<String> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .filter(|n| Workload::parse(n).is_some())
            .collect();
        assert_eq!(workloads, ["serve_lenet5", "eval_vgg11"]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = BTreeMap::new();
        metrics.insert("p50_ms".to_string(), (1.25, "ms"));
        let line = result_json(&Outcome {
            attempted: 3,
            failed: 0,
            metrics,
            meta_json: "{}".into(),
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
