//! Smoke mode: every workload end to end, untraced and traced, in a
//! fraction of a second of measurement each.

use perfbench::{per_layer_metrics, run, Options, Workload, END_TO_END};

fn smoke(workload: Workload, trace: bool) {
    let out_dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let opts = Options {
        workload,
        // The default seed, so the recorded digests are checked too.
        seed: perfbench::inputs::DEFAULT_SEED,
        seconds: 0.6,
        trace,
        out_dir: Some(out_dir.clone()),
    };
    let out = run(&opts).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{}", workload.name());
    let expected: Vec<String> = if trace {
        per_layer_metrics().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    };
    let mut got: Vec<String> = out.metrics.keys().cloned().collect();
    let mut want = expected;
    got.sort();
    want.sort();
    assert_eq!(got, want);
    if trace {
        let file = out_dir.join(format!("trace-{}-seed1.json", workload.name()));
        let text = std::fs::read_to_string(&file).expect("trace written");
        assert!(text.contains("\"setup.compile\""));
        assert!(text.contains("\"kernel.project\""));
    } else {
        for name in ["setup_s", "p50_ms", "p90_ms", "images_per_s"] {
            assert!(out.metrics[name].0 > 0.0, "{name} on {}", workload.name());
        }
        assert_eq!(out.metrics["ok_share"].0, 1.0);
    }
}

#[test]
fn every_workload_runs_end_to_end() {
    for w in Workload::ALL {
        smoke(w, false);
        smoke(w, true);
    }
}
