//! The one percentile function every latency metric goes through.

/// A nearest-rank percentile of a sample: the value at 1-based rank
/// `ceil(q · n)` of the sorted sample, with the sample count and how many
/// samples lie strictly beyond that rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; otherwise it is marked insufficient.
pub const MIN_BEYOND: usize = 10;

impl Pct {
    /// Whether enough samples lie beyond the rank to report it.
    pub fn sufficient(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }

    /// `value (n=…, beyond=…)`, or `insufficient (n=…, beyond=…)`.
    pub fn describe(&self) -> String {
        if self.sufficient() {
            format!("{:.1} (n={}, beyond={})", self.value, self.n, self.beyond)
        } else {
            format!("insufficient (n={}, beyond={})", self.n, self.beyond)
        }
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `samples` (sorted in place);
/// value 0 for an empty sample (the layer did not run on this workload).
pub fn percentile(samples: &mut [f64], q: f64) -> Pct {
    let n = samples.len();
    if n == 0 {
        return Pct {
            value: 0.0,
            n: 0,
            beyond: 0,
        };
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pct {
        value: samples[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// Length of the windows the timed phase is cut into, seconds.
pub const WINDOW_S: f64 = 1.0;

/// One timed answer: when it arrived (seconds since the timed phase
/// began), its latency, and whether it matched its reference.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub done_s: f64,
    pub lat_us: f64,
    pub ok: bool,
}

/// Medians, over the windows of a timed phase, of each window's numbers.
/// A slow spell of a shared host then moves the few windows it covers,
/// not the reported figure.
#[derive(Clone, Copy, Debug, Default)]
pub struct Windowed {
    /// Windows with at least one answer.
    pub windows: usize,
    /// Matched answers per second.
    pub rps: f64,
    /// Nearest-rank p50 and p99 latency.
    pub p50_us: f64,
    pub p99_us: f64,
    /// Process CPU time per answer.
    pub cpu_us_per_req: f64,
}

/// Cut `samples` into the windows between consecutive `ticks` (seconds
/// since the timed phase began, process CPU seconds at that moment) and
/// take the median of each window's numbers. Answers outside the ticks
/// are left out.
pub fn windowed(samples: &[Sample], ticks: &[(f64, f64)]) -> Windowed {
    let n = ticks.len().saturating_sub(1);
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut ok = vec![0usize; n];
    for s in samples {
        let k = ticks.partition_point(|t| t.0 <= s.done_s);
        if (1..=n).contains(&k) {
            lat[k - 1].push(s.lat_us);
            ok[k - 1] += usize::from(s.ok);
        }
    }
    let (mut rps, mut p50, mut p99, mut cpu) = (vec![], vec![], vec![], vec![]);
    for (k, l) in lat.iter_mut().enumerate().filter(|(_, l)| !l.is_empty()) {
        let ((t0, c0), (t1, c1)) = (ticks[k], ticks[k + 1]);
        rps.push(ok[k] as f64 / (t1 - t0));
        cpu.push((c1 - c0) * 1e6 / l.len() as f64);
        p50.push(percentile(l, 0.5).value);
        p99.push(percentile(l, 0.99).value);
    }
    Windowed {
        windows: rps.len(),
        rps: median(rps),
        p50_us: median(p50),
        p99_us: median(p99),
        cpu_us_per_req: median(cpu),
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of a small set of repeated measurements.
pub fn median(mut xs: Vec<f64>) -> f64 {
    percentile(&mut xs, 0.5).value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = percentile(&mut xs, 0.99);
        assert_eq!((p99.value, p99.n, p99.beyond), (99.0, 100, 1));
        assert!(!p99.sufficient(), "one sample beyond p99 is not enough");
        let p50 = percentile(&mut xs, 0.5);
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
        let mut big: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&mut big, 0.99);
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(p99.sufficient());
        assert_eq!(percentile(&mut [], 0.5).n, 0);
        assert_eq!(percentile(&mut [7.0], 0.99).value, 7.0);
    }

    #[test]
    fn windows_report_the_median_window() {
        // Three one-second windows of 100 answers with latencies 1..=100
        // scaled by 1, 2 and 9: the middle window is reported. CPU runs
        // 0.1, 0.2 and 0.3 s per window. The answer after the last tick
        // is left out.
        let mut samples = Vec::new();
        for (k, scale) in [1.0, 2.0, 9.0].into_iter().enumerate() {
            for i in 1..=100 {
                samples.push(Sample {
                    done_s: k as f64 + i as f64 / 101.0,
                    lat_us: i as f64 * scale,
                    ok: i > 50 || k != 1,
                });
            }
        }
        samples.push(Sample {
            done_s: 3.5,
            lat_us: 1e9,
            ok: true,
        });
        let ticks = [(0.0, 0.0), (1.0, 0.1), (2.0, 0.3), (3.0, 0.6)];
        let w = windowed(&samples, &ticks);
        assert_eq!(w.windows, 3);
        assert_eq!((w.p50_us, w.p99_us), (100.0, 198.0));
        assert_eq!(w.rps, 100.0, "median of 100, 50 and 100 matched per second");
        assert!((w.cpu_us_per_req - 2000.0).abs() < 1e-6);
    }
}
