//! Pure statistics: percentiles, the tail-percentile rule, and the stage
//! partition that makes traced stage means add up to the operation mean.

/// Percentiles a tail metric may use, lowest first. The ladder stops at
/// p90: on a shared 2-vCPU host, p95 and p99 of a half-second slice moved
/// by 20-40% between runs of the same code, which no useful bound covers.
pub const TAIL_LADDER: [f64; 3] = [50.0, 75.0, 90.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples.
pub fn rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample set");
    // Integer arithmetic in tenths of a percent: no float rounding at
    // exact ranks such as p95 of 200 samples.
    let permille = (p * 10.0).round() as usize;
    let r = (permille * n).div_ceil(1000);
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - 1 - rank(p, n)
}

/// The tail percentile of a workload whose fixed (nominal) sample count
/// is `n`: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; the median if none has.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .rev()
        .find(|&p| n > 0 && beyond(p, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile of `sorted` (ascending).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(p, sorted.len())]
}

/// Median of unsorted floats (mean of the two middle values when even).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of `values` (a
/// quarter dropped from each end, rounding the dropped count down).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    assert!(!mid.is_empty(), "interquartile mean of nothing");
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One traced operation's span durations, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSpans {
    /// The benchmark's span around the call: call to verified reply.
    pub op: u64,
    /// The program's `exchange` span (or `invoke` for reads).
    pub exchange: u64,
    /// The program's `enforce` spans (single-frame writes only).
    pub enforce: u64,
    /// The benchmark's spans around the wrapped `Invoker`.
    pub services: u64,
    /// The program's `ship` spans.
    pub ship: u64,
    /// The benchmark's spans around the wrapped receiver handler.
    pub receive: u64,
    /// Chunked writes: streaming enforcement runs inside `ship`, so its
    /// self time comes from a sink-only replay of the same call.
    pub enforce_in_ship: Option<u64>,
}

/// Stages that partition an operation: their sum is the operation time.
pub const PARTS: [&str; 5] = [
    "sender_enforce",
    "services_invoke",
    "wire",
    "receive",
    "other",
];

impl OpSpans {
    /// The partition named by [`PARTS`], in nanoseconds (signed: a
    /// difference of two clocks can dip below zero by clock noise).
    pub fn parts(&self) -> [i64; 5] {
        let op = self.op as i64;
        let services = self.services as i64;
        let ship = self.ship as i64;
        let receive = self.receive as i64;
        match self.enforce_in_ship {
            None => {
                let enforce = self.enforce as i64;
                [
                    enforce - services,
                    services,
                    ship - receive,
                    receive,
                    op - enforce - ship,
                ]
            }
            Some(enforce) => {
                let enforce = enforce as i64;
                [
                    enforce,
                    services,
                    ship - receive - services - enforce,
                    receive,
                    op - ship,
                ]
            }
        }
    }
}

/// p50 and mean of one stage across operations, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageStat {
    /// Median, µs.
    pub p50_us: f64,
    /// Mean, µs.
    pub mean_us: f64,
}

/// Summarizes per-operation stage values given in nanoseconds.
pub fn stage_stat(values_ns: &[i64]) -> StageStat {
    if values_ns.is_empty() {
        return StageStat {
            p50_us: 0.0,
            mean_us: 0.0,
        };
    }
    let us: Vec<f64> = values_ns.iter().map(|&v| v as f64 / 1e3).collect();
    StageStat {
        p50_us: median_f64(&us),
        mean_us: us.iter().sum::<f64>() / us.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 40 samples: p75 leaves exactly 10 beyond, p90 only 4.
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(beyond(75.0, 40), 10);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        // The ladder tops out at p90, however many samples there are.
        assert_eq!(tail_percentile(10_000_000), 90.0);
        assert_eq!(tail_percentile(0), 50.0);
        for n in 1..3000 {
            let p = tail_percentile(n);
            if p > 50.0 {
                assert!(beyond(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
            if let Some(&next) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(
                    beyond(next, n) < TAIL_MIN_BEYOND,
                    "n={n}: {next} also qualifies"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(beyond(95.0, 200), 10);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            3.5
        );
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }

    #[test]
    fn stage_means_plus_other_equal_the_operation_mean() {
        // A synthetic span set: single-frame writes and chunked writes
        // with arbitrary (even inconsistent) nested durations.
        let mut ops = Vec::new();
        for i in 0..50u64 {
            ops.push(OpSpans {
                op: 1000 + 37 * i,
                exchange: 900 + 30 * i,
                enforce: 300 + 11 * i,
                services: 40 + i,
                ship: 500 + 13 * i,
                receive: 200 + 7 * i,
                enforce_in_ship: None,
            });
            ops.push(OpSpans {
                op: 5000 + 91 * i,
                exchange: 4900 + 90 * i,
                enforce: 0,
                services: 60 + 2 * i,
                ship: 4700 + 80 * i,
                receive: 1500 + 20 * i,
                enforce_in_ship: Some(900 + 5 * i),
            });
        }
        let op_mean = stage_stat(&ops.iter().map(|o| o.op as i64).collect::<Vec<_>>()).mean_us;
        let sum: f64 = (0..PARTS.len())
            .map(|k| stage_stat(&ops.iter().map(|o| o.parts()[k]).collect::<Vec<_>>()).mean_us)
            .sum();
        assert!((sum - op_mean).abs() < 1e-6, "{sum} vs {op_mean}");
        for o in &ops {
            assert_eq!(o.parts().iter().sum::<i64>(), o.op as i64);
        }
    }
}
