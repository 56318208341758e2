//! Order statistics and pooled means.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `v` by linear interpolation
/// between order statistics (`NaN` for an empty slice). Sorts `v`.
pub fn quantile<T: Copy + Into<f64> + PartialOrd>(v: &mut [T], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let (a, b): (f64, f64) = (v[lo].into(), v[hi].into());
    a + (b - a) * (pos - lo as f64)
}

pub fn median<T: Copy + Into<f64> + PartialOrd>(v: &mut [T]) -> f64 {
    quantile(v, 0.5)
}

/// Describes a tail percentile's support: `p99 with 7205 beyond`, plus a
/// warning when fewer than ten samples lie beyond it.
pub fn tail_note(n: usize, q: f64) -> String {
    let k = beyond(n, q);
    let warn = if k < 10 {
        " (fewer than 10: lengthen --seconds)"
    } else {
        ""
    };
    format!("p{} with {k} beyond{warn}", (q * 100.0).round())
}

/// `min/median/max` of `v` with three significant digits, for facts.
pub fn spread_note(v: &mut [f64]) -> String {
    let (lo, mid, hi) = (quantile(v, 0.0), median(v), quantile(v, 1.0));
    format!("min/median/max={lo:.3e}/{mid:.3e}/{hi:.3e}")
}

/// Latencies kept by a [`Reservoir`]: 256 KB once full, which still
/// leaves 655 samples beyond p99.
const RESERVOIR_CAP: usize = 1 << 16;

/// A uniform random sample (Vitter's algorithm R) of at most 2^16
/// latencies in whole nanoseconds. Runs that make more operations keep a
/// fixed amount of memory, so the benchmark's own bookkeeping does not
/// move `peak_rss_mb` with throughput. Shorter runs keep every latency.
#[derive(Debug, Clone)]
pub struct Reservoir {
    sample: Vec<u32>,
    seen: u64,
    rng: crate::gen::Rng,
}

impl Default for Reservoir {
    fn default() -> Self {
        Self {
            sample: Vec::new(),
            seen: 0,
            // Which latencies are kept is independent of the workload seed.
            rng: crate::gen::Rng::new(0x5E1EC7),
        }
    }
}

impl Reservoir {
    pub fn add(&mut self, nanos: f64) {
        let v = nanos.round().clamp(0.0, u32::MAX as f64) as u32;
        self.seen += 1;
        if self.sample.len() < RESERVOIR_CAP {
            self.sample.push(v);
        } else {
            let j = self.rng.next_u64() % self.seen;
            if let Some(slot) = self.sample.get_mut(j as usize) {
                *slot = v;
            }
        }
    }

    /// Starts over, keeping the allocation.
    pub fn clear(&mut self) {
        self.sample.clear();
        self.seen = 0;
    }

    /// Latencies recorded, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept latencies, for [`quantile`].
    pub fn sample(&mut self) -> &mut [u32] {
        &mut self.sample
    }
}

/// One slice of a measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub p50_ns: f64,
    pub tail_ns: f64,
    pub ops_per_s: f64,
    /// Latency samples kept for the percentiles.
    pub samples: u64,
}

/// Cuts a measured window into slices of equal active time and keeps
/// each slice's p50, tail percentile and throughput. On a shared host the
/// speed changes from one second to the next with other tenants' load;
/// within a slice it holds, and a change to the program moves every
/// slice alike, so a run reports its fastest slices ([`best`]).
#[derive(Debug)]
pub struct Slicer {
    len_s: f64,
    tail_q: f64,
    lat: Reservoir,
    ops: u64,
    start_s: f64,
    slices: Vec<Slice>,
}

impl Slicer {
    /// Slices of `len_s` seconds.
    pub fn new(len_s: f64, tail_q: f64) -> Self {
        Self {
            len_s,
            tail_q,
            lat: Reservoir::default(),
            ops: 0,
            start_s: 0.0,
            slices: Vec::new(),
        }
    }

    /// Records one latency sample that stands for `ops` operations.
    pub fn add(&mut self, nanos: f64, ops: u64) {
        self.lat.add(nanos);
        self.ops += ops;
    }

    /// Closes the current slice once `active_s` (the window's time so
    /// far, pauses left out) reaches its end.
    pub fn tick(&mut self, active_s: f64) {
        if active_s - self.start_s >= self.len_s {
            self.cut(active_s);
        }
    }

    fn cut(&mut self, active_s: f64) {
        if self.lat.seen() == 0 {
            return;
        }
        let kept = self.lat.sample();
        self.slices.push(Slice {
            p50_ns: median(kept),
            tail_ns: quantile(kept, self.tail_q),
            ops_per_s: self.ops as f64 / (active_s - self.start_s),
            samples: kept.len() as u64,
        });
        self.lat.clear();
        self.ops = 0;
        self.start_s = active_s;
    }

    /// The whole slices, or the partial one when none is whole.
    pub fn finish(mut self, active_s: f64) -> Vec<Slice> {
        if self.slices.is_empty() {
            self.cut(active_s);
        }
        self.slices
    }
}

/// The run's fastest sixth: the sixth of the slices (at least one) with
/// the lowest p50, and the median over them of each figure. The slow
/// moments are left out as long as a sixth of the run was quiet, and a
/// median over several slices stays steady where the single best slice's
/// tail would not.
pub fn best(slices: &[Slice]) -> Slice {
    let mut by_p50: Vec<Slice> = slices.to_vec();
    by_p50.sort_by(|a, b| a.p50_ns.total_cmp(&b.p50_ns));
    by_p50.truncate(slices.len().div_ceil(6));
    let mid = |f: fn(&Slice) -> f64| median(&mut by_p50.iter().map(f).collect::<Vec<_>>());
    Slice {
        p50_ns: mid(|s| s.p50_ns),
        tail_ns: mid(|s| s.tail_ns),
        ops_per_s: mid(|s| s.ops_per_s),
        samples: by_p50.iter().map(|s| s.samples).min().unwrap_or(0),
    }
}

/// The statistics of repeated passes over the same `n` operations
/// (`lat_ns` pass after pass): each operation's fastest time over the
/// passes, then p50, the `tail_q` tail and throughput over those. An
/// operation that takes milliseconds meets a quiet moment of the host in
/// one pass or another. `NaN` (a failed operation) never counts.
pub fn fastest_each(lat_ns: &[f64], n: usize, tail_q: f64) -> Slice {
    let mut fastest: Vec<f64> = (0..n)
        .map(|i| {
            lat_ns
                .iter()
                .skip(i)
                .step_by(n.max(1))
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    Slice {
        ops_per_s: n as f64 * 1e9 / fastest.iter().sum::<f64>(),
        p50_ns: median(&mut fastest),
        tail_ns: quantile(&mut fastest, tail_q),
        samples: n as u64,
    }
}

/// Number of samples strictly beyond the `q`-quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Running `(count, mean, M2)` that merges batch summaries exactly
/// (Chan et al.'s pairwise update).
#[derive(Debug, Clone, Copy, Default)]
pub struct Pooled {
    pub n: u64,
    pub mean: f64,
    m2: f64,
}

impl Pooled {
    pub fn add_batch(&mut self, n: u64, mean: f64, std_dev: f64) {
        if n == 0 {
            return;
        }
        let m2 = std_dev * std_dev * (n.saturating_sub(1)) as f64;
        let total = self.n + n;
        let delta = mean - self.mean;
        self.mean += delta * n as f64 / total as f64;
        self.m2 += m2 + delta * delta * (self.n as f64 * n as f64) / total as f64;
        self.n = total;
    }

    pub fn std_error(&self) -> f64 {
        if self.n < 2 {
            return f64::INFINITY;
        }
        (self.m2 / (self.n - 1) as f64 / self.n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
    }

    #[test]
    fn tail_note_counts_samples_beyond() {
        assert_eq!(tail_note(1000, 0.99), "p99 with 10 beyond");
        assert!(tail_note(200, 0.99).ends_with("(fewer than 10: lengthen --seconds)"));
    }

    #[test]
    fn reservoir_keeps_short_runs_whole_and_long_runs_bounded() {
        let mut r = Reservoir::default();
        let mut v: Vec<f64> = (1..=1000).map(|i| (i * 37 % 1000) as f64).collect();
        for &x in &v {
            r.add(x);
        }
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(quantile(r.sample(), q), quantile(&mut v, q), "q={q}");
        }
        let mut r = Reservoir::default();
        for i in 0..3 * RESERVOIR_CAP as u64 {
            r.add((i % 1000) as f64);
        }
        assert_eq!(r.sample().len(), RESERVOIR_CAP);
        assert_eq!(r.seen(), 3 * RESERVOIR_CAP as u64);
        assert!((quantile(r.sample(), 0.5) - 499.5).abs() < 5.0);
    }

    #[test]
    fn slicer_cuts_on_active_time() {
        let mut s = Slicer::new(1.0, 0.5);
        for (t, ns) in [
            (0.2, 10.0),
            (0.9, 30.0),
            (1.0, 20.0),
            (1.5, 5.0),
            (2.1, 7.0),
        ] {
            s.add(ns, 2);
            s.tick(t);
        }
        let slices = s.finish(2.5);
        assert_eq!(slices.len(), 2);
        assert_eq!((slices[0].p50_ns, slices[0].ops_per_s), (20.0, 6.0));
        assert_eq!(slices[1].p50_ns, 6.0);
        assert!((slices[1].ops_per_s - 4.0 / 1.1).abs() < 1e-9);
        assert_eq!(best(&slices), slices[1]);

        let mut short = Slicer::new(1.0, 0.5);
        short.add(3.0, 1);
        short.tick(0.4);
        assert_eq!(
            short.finish(0.5)[0].ops_per_s,
            2.0,
            "a partial slice when none is whole"
        );
    }

    #[test]
    fn best_takes_medians_over_the_fastest_sixth() {
        let slice = |p50_ns: f64, tail_ns: f64, ops_per_s: f64| Slice {
            p50_ns,
            tail_ns,
            ops_per_s,
            samples: 100,
        };
        let slices: Vec<Slice> = [(9.0, 20.0, 1.0), (4.0, 8.0, 5.0), (5.0, 6.0, 4.0)]
            .iter()
            .chain(&[(4.5, 7.0, 4.5), (8.0, 9.0, 2.0), (7.0, 9.0, 3.0)])
            .chain(&[(6.0, 9.0, 3.0)])
            .map(|&(a, b, c)| slice(a, b, c))
            .collect();
        assert_eq!(best(&slices), slice(4.25, 7.5, 4.75));
        assert_eq!(best(&slices[..1]), slices[0]);
    }

    #[test]
    fn fastest_each_takes_each_ops_minimum_over_passes() {
        let passes = [10.0, 40.0, 30.0, 20.0, 5.0, f64::NAN];
        let s = fastest_each(&passes, 3, 1.0);
        assert_eq!((s.p50_ns, s.tail_ns, s.samples), (10.0, 30.0, 3));
        assert!((s.ops_per_s - 3e9 / 45.0).abs() < 1e-6);
    }

    #[test]
    fn pooled_batches_match_one_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let stats = |s: &[f64]| {
            let m = s.iter().sum::<f64>() / s.len() as f64;
            let var = s.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (s.len() - 1) as f64;
            (m, var.sqrt())
        };
        let mut p = Pooled::default();
        for chunk in xs.chunks(30) {
            let (m, sd) = stats(chunk);
            p.add_batch(chunk.len() as u64, m, sd);
        }
        let (m, sd) = stats(&xs);
        assert!((p.mean - m).abs() < 1e-12);
        assert!((p.std_error() - sd / 10.0).abs() < 1e-12);
    }
}
