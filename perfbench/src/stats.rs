//! Order statistics used by every metric the benchmark reports.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// such that at least `q · n` samples are at or below it (`q` in
/// `(0, 1]`). Every percentile and median in the report uses this rule,
/// so a value is always one that was actually measured.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns its nearest-rank median.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 0.5)
}

/// Sorts ascending; samples are timings and counts, never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// The 50th, 90th and 99th percentiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// The [`Tail`] of `values` (sorted in place), or `None` for an empty
/// sample.
pub fn tail(values: &mut [f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    sort(values);
    Some(Tail {
        p50: percentile(values, 0.50),
        p90: percentile(values, 0.90),
        p99: percentile(values, 0.99),
    })
}

/// Which window of a run is reported, counted from its calm end: the
/// tenth-percentile window for times, the ninetieth for rates.
///
/// The shared host the benchmark runs on takes CPU away in bursts (steal
/// by other guests) and changes speed over minutes, and either only adds
/// time. A window the host left alone shows the program's own cost, so
/// the calm end of a run's windows follows the program and moves least
/// with the host; a slowdown of the program moves every window, the calm
/// ones too. Over six 50 s runs on a 2-vCPU VM with 1 to 15 s of stolen
/// CPU each, the run-to-run spread (interquartile range over median) of
/// windowed p90 latency was 0.89 at the median window and 0.20 at the
/// tenth-percentile one. The price is blindness to a program stall that
/// hits fewer than a tenth of the windows.
pub const CALM_Q: f64 = 0.1;

/// The calm-end value of per-window times (sorted in place).
pub fn calm_time(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, CALM_Q)
}

/// The calm-end value of per-window rates (sorted in place).
pub fn calm_rate(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 1.0 - CALM_Q)
}

/// The calm-end window of each window's [`Tail`], percentile by
/// percentile. Empty windows are skipped; `None` when all are.
pub fn windowed_tail(windows: &mut [Vec<f64>]) -> Option<Tail> {
    let tails: Vec<Tail> = windows.iter_mut().filter_map(|w| tail(w)).collect();
    if tails.is_empty() {
        return None;
    }
    let pick = |f: fn(&Tail) -> f64| calm_time(&mut tails.iter().map(f).collect::<Vec<_>>());
    Some(Tail {
        p50: pick(|t| t.p50),
        p90: pick(|t| t.p90),
        p99: pick(|t| t.p99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        // Ten samples: p99 is the largest, the median the fifth.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), 10.0);
        assert_eq!(percentile(&w, 0.5), 5.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        let mut v = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut v), 2.0);
        assert_eq!(v, [1.0, 2.0, 3.0]);
        assert_eq!(tail(&mut []), None);
    }

    #[test]
    fn windows_are_read_at_their_calm_end() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut windows = vec![calm.clone(), calm.clone(), calm.clone()];
        windows[1].iter_mut().for_each(|v| *v *= 50.0);
        windows.push(Vec::new());
        let t = windowed_tail(&mut windows).expect("three windows");
        assert_eq!((t.p50, t.p90, t.p99), (50.0, 90.0, 99.0));
        assert_eq!(windowed_tail(&mut [Vec::new()]), None);
        // Ten windows: the calm end is the best but for one.
        let mut rates: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(calm_rate(&mut rates), 9.0);
        assert_eq!(calm_time(&mut rates), 1.0);
    }
}
