//! Windowed estimators and the small statistics the benchmark reports.
//!
//! A run's measured phase is cut into windows; each window yields its
//! own throughput and latency percentiles, scaled to nominal machine
//! speed (see `reference`), and the run reports the **median over
//! windows**. One window disturbed by the hypervisor or a noisy
//! neighbour then moves nothing.

use std::time::Instant;

/// Windows per measured phase.
pub const WINDOWS: usize = 15;

/// Number of op classes a workload may distinguish (per-op wire
/// latencies in the traced run).
pub const MAX_CLASSES: usize = 8;

/// The `q`-quantile (0..=1) of `sorted` by the nearest-rank rule;
/// 0 for an empty slice.
pub fn quantile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// The median of `values` (mean of the two middle ones for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance rule for this benchmark is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| -> f64 {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// One window of a measured phase: the workload runs for `secs`, between
/// two samples of the machine-speed reference on the CPU that bounds it.
pub struct Window {
    /// Latency in nanoseconds of every op completed in the window.
    pub lat_ns: Vec<u32>,
    /// How long the workload ran.
    pub secs: f64,
    /// Seconds the reference work took, averaged over the samples taken
    /// right before and right after the window (0: not sampled).
    pub reference_s: f64,
    /// Seconds the hypervisor took a CPU away during the window.
    pub stolen_s: f64,
}

impl Window {
    /// Whether the hypervisor took more than a fiftieth of the window
    /// away: its latencies then say how long the machine was gone, not
    /// how fast the program is.
    pub fn disturbed(&self) -> bool {
        self.stolen_s > 0.02 * (self.secs + self.reference_s)
    }
}

/// Reduces a phase to its estimators. `nominal_s` is what a reference
/// sample takes at nominal machine speed; `by_class` holds the phase's
/// latencies per op class (traced runs).
pub fn summarize(
    mut windows: Vec<Window>,
    nominal_s: f64,
    by_class: Option<Vec<Vec<u32>>>,
) -> PhaseSummary {
    // Disturbed windows are left out as long as half a phase's worth of
    // clean ones remains; everything raw and ungated still counts them.
    let clean = windows.iter().filter(|w| !w.disturbed()).count();
    let keep_disturbed = clean < windows.len().min(WINDOWS).div_ceil(2);
    if clean < windows.len() && windows.len() > 1 {
        eprintln!(
            "[benchmark] {} of {} windows lost CPU to the hypervisor{}",
            windows.len() - clean,
            windows.len(),
            if keep_disturbed {
                "; too few are left, keeping all"
            } else {
                ""
            }
        );
    }
    let mut raw = [Vec::new(), Vec::new(), Vec::new()];
    let mut normal = [Vec::new(), Vec::new(), Vec::new()];
    let mut speeds = Vec::new();
    let mut all: Vec<u32> = Vec::new();
    let mut min_window = usize::MAX;
    for w in &mut windows {
        w.lat_ns.sort_unstable();
        // > 1: the machine was faster than nominal during this window.
        let speed = if w.reference_s > 0.0 {
            nominal_s / w.reference_s
        } else {
            1.0
        };
        let values = [
            w.lat_ns.len() as f64 / w.secs,
            quantile_sorted(&w.lat_ns, 0.50) / 1e3,
            quantile_sorted(&w.lat_ns, 0.95) / 1e3,
        ];
        all.extend_from_slice(&w.lat_ns);
        if w.disturbed() && !keep_disturbed {
            continue;
        }
        for (i, &v) in values.iter().enumerate() {
            raw[i].push(v);
            // Throughput falls and latency rises on a slow machine.
            normal[i].push(if i == 0 { v / speed } else { v * speed });
        }
        speeds.push(speed);
        min_window = min_window.min(w.lat_ns.len());
    }
    all.sort_unstable();
    if windows.len() > 1 {
        eprintln!(
            "[benchmark] windows: qps {:.0?} p50_us {:.1?} p95_us {:.1?} speed {:.3?}",
            raw[0], raw[1], raw[2], speeds
        );
    }
    let class_p50_us = by_class
        .map(|classes| {
            classes
                .into_iter()
                .map(|mut c| {
                    c.sort_unstable();
                    quantile_sorted(&c, 0.50) / 1e3
                })
                .collect()
        })
        .unwrap_or_default();
    PhaseSummary {
        completed: all.len() as u64,
        min_window_samples: if min_window == usize::MAX {
            0
        } else {
            min_window
        },
        speed: median(&speeds),
        qps: median(&normal[0]),
        p50_us: median(&normal[1]),
        p95_us: median(&normal[2]),
        raw_qps: median(&raw[0]),
        raw_p50_us: median(&raw[1]),
        raw_p95_us: median(&raw[2]),
        p99_us: quantile_sorted(&all, 0.99) / 1e3,
        p999_us: quantile_sorted(&all, 0.999) / 1e3,
        max_us: all.last().map_or(0.0, |&ns| ns as f64 / 1e3),
        class_p50_us,
    }
}

/// The estimators of one measured phase. Those without `raw_` are
/// scaled to nominal machine speed, window by window.
#[derive(Debug, Clone, Default)]
pub struct PhaseSummary {
    /// Ops completed inside the phase.
    pub completed: u64,
    /// Samples in the emptiest window (a percentile needs enough of them).
    pub min_window_samples: usize,
    /// Median over windows of machine speed relative to nominal.
    pub speed: f64,
    /// Median over windows of ops completed per second.
    pub qps: f64,
    /// Median over windows of the window's median latency, µs.
    pub p50_us: f64,
    /// Median over windows of the window's 95th percentile, µs.
    pub p95_us: f64,
    /// As `qps`, as the clock saw it.
    pub raw_qps: f64,
    /// As `p50_us`, as the clock saw it.
    pub raw_p50_us: f64,
    /// As `p95_us`, as the clock saw it.
    pub raw_p95_us: f64,
    /// 99th percentile over the whole phase, µs (raw, ungated).
    pub p99_us: f64,
    /// 99.9th percentile over the whole phase, µs (raw, ungated).
    pub p999_us: f64,
    /// Slowest op of the phase, µs (raw, ungated).
    pub max_us: f64,
    /// Median latency per op class, µs (raw; empty unless kept).
    pub class_p50_us: Vec<f64>,
}

/// Times `f` once and returns `(result, seconds)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50.0);
        assert_eq!(quantile_sorted(&v, 0.95), 95.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted::<u32>(&[], 0.5), 0.0);
    }

    #[test]
    fn windows_take_the_median_and_divide_out_machine_speed() {
        let window = |n: usize, lat_us: u32, reference_s: f64| Window {
            lat_ns: vec![lat_us * 1000; n],
            secs: 1.0,
            reference_s,
            stolen_s: 0.0,
        };
        // Nominal machine; window 3 is disturbed and moves nothing.
        let mut windows: Vec<Window> = (0..WINDOWS).map(|_| window(100, 100, 0.1)).collect();
        windows[3] = window(50, 1000, 0.1);
        let s = summarize(windows, 0.1, None);
        assert_eq!((s.qps, s.p50_us, s.p95_us), (100.0, 100.0, 100.0));
        assert_eq!((s.max_us, s.min_window_samples), (1000.0, 50));

        // Windows the hypervisor stole from are left out while enough
        // clean ones remain.
        let mut stolen: Vec<Window> = (0..WINDOWS).map(|_| window(100, 100, 0.1)).collect();
        for w in stolen.iter_mut().take(7) {
            *w = Window {
                stolen_s: 0.3,
                ..window(10, 5000, 0.4)
            };
        }
        let s = summarize(stolen, 0.1, None);
        assert_eq!((s.qps, s.p50_us, s.min_window_samples), (100.0, 100.0, 100));
        assert_eq!(s.max_us, 5000.0);

        // The whole machine at half speed: half the ops at twice the
        // latency, the reference at twice its time. Same report.
        let slow: Vec<Window> = (0..WINDOWS).map(|_| window(50, 200, 0.2)).collect();
        let s = summarize(slow, 0.1, None);
        assert_eq!((s.qps, s.p50_us, s.p95_us), (100.0, 100.0, 100.0));
        assert_eq!((s.raw_qps, s.raw_p50_us, s.speed), (50.0, 200.0, 0.5));
    }
}
