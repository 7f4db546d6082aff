//! Order statistics and operation tallies.
//!
//! Latencies are reported the way the benchmark's README states: the
//! median, plus the highest percentile that still has at least
//! [`TAIL_MIN_BEYOND`] samples beyond it; below [`TAIL_MIN_SAMPLES`]
//! samples only the median is reported, since any "tail" would be a
//! handful of points.

use std::collections::BTreeMap;

/// A percentile is reported only if at least this many samples lie
/// beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;
/// Below this many samples no tail percentile is reported at all.
pub const TAIL_MIN_SAMPLES: usize = 40;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by linear interpolation
/// between closest ranks. `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values` (any order).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The tail rule: the highest of the usual reporting percentiles that has
/// at least [`TAIL_MIN_BEYOND`] samples beyond it, as a fraction (0.99 for
/// p99). `None` below [`TAIL_MIN_SAMPLES`] samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    // Per-mille, so "samples beyond" is exact integer arithmetic.
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&pm| n * (1000 - pm) / 1000 >= TAIL_MIN_BEYOND)
        .map(|pm| pm as f64 / 1000.0)
}

/// Batch size of [`Samples::batch_p99`]: the smallest sample whose 99th
/// percentile has [`TAIL_MIN_BEYOND`] samples beyond it.
pub const P99_BATCH: usize = 1000;

/// A set of latency samples in microseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Median, or 0 when empty.
    pub fn median(&self) -> f64 {
        median(&self.values).unwrap_or(0.0)
    }

    /// The `q`-quantile, or 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        quantile(&v, q).unwrap_or(0.0)
    }

    /// The 99th percentile when the sample supports it (at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it); otherwise the tail rule's
    /// highest supported percentile, or the median below
    /// [`TAIL_MIN_SAMPLES`] samples.
    pub fn p99_or_tail(&self) -> f64 {
        match tail_percentile(self.len()) {
            Some(p) if p >= 0.99 => self.quantile(0.99),
            Some(p) => self.quantile(p),
            None => self.median(),
        }
    }

    /// The 99th percentile as the median over consecutive batches of
    /// [`P99_BATCH`] samples (recording order; the last batch takes the
    /// remainder) of each batch's 99th percentile. One noisy stretch of a
    /// run then moves one batch, not the whole tail. With fewer than two
    /// batches it is [`Samples::p99_or_tail`].
    pub fn batch_p99(&self) -> f64 {
        let batches = self.values.len() / P99_BATCH;
        if batches < 2 {
            return self.p99_or_tail();
        }
        let p99s: Vec<f64> = (0..batches)
            .map(|b| {
                let end = if b + 1 == batches {
                    self.values.len()
                } else {
                    (b + 1) * P99_BATCH
                };
                let mut v = self.values[b * P99_BATCH..end].to_vec();
                v.sort_by(f64::total_cmp);
                quantile(&v, 0.99).unwrap_or(0.0)
            })
            .collect();
        median(&p99s).unwrap_or(0.0)
    }

    /// Median of the first and of the last tenth of the samples, in
    /// recording order (how a cost evolves as state or log grows).
    pub fn first_last_decile(&self) -> (f64, f64) {
        let k = (self.values.len() / 10).max(1).min(self.values.len());
        let first = median(&self.values[..k]).unwrap_or(0.0);
        let last = median(&self.values[self.values.len() - k..]).unwrap_or(0.0);
        (first, last)
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }
}

/// Attempted and failed operations per operation kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    kinds: BTreeMap<&'static str, (u64, u64)>,
}

impl Tally {
    /// Count one attempt of `kind`, failed or not.
    pub fn record(&mut self, kind: &'static str, ok: bool) {
        let e = self.kinds.entry(kind).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
        }
    }

    /// Mark one already-counted attempt of `kind` as failed (a result
    /// that a later output check rejected).
    pub fn fail(&mut self, kind: &'static str) {
        self.kinds.entry(kind).or_default().1 += 1;
    }

    /// Total attempted operations over all kinds.
    pub fn attempted(&self) -> u64 {
        self.kinds.values().map(|e| e.0).sum()
    }

    /// Total failed operations over all kinds (never above attempted).
    pub fn failed(&self) -> u64 {
        self.kinds.values().map(|e| e.1.min(e.0)).sum()
    }

    /// `(kind, attempted, failed)` in kind order.
    pub fn rows(&self) -> Vec<(&'static str, u64, u64)> {
        self.kinds
            .iter()
            .map(|(k, e)| (*k, e.0, e.1.min(e.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 0.0), Some(0.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.5));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(199), Some(0.9));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        let mut s = Samples::default();
        for i in 0..1000 {
            s.push(f64::from(i));
        }
        let v = s.p99_or_tail();
        assert!((v - 989.01).abs() < 1e-9, "{v}");
    }

    #[test]
    fn batch_p99_is_the_median_of_batch_tails() {
        let mut s = Samples::default();
        // Three batches of 1000; the middle one is ten times slower.
        for b in [1.0, 10.0, 1.0] {
            for i in 0..1000 {
                s.push(b * f64::from(i));
            }
        }
        assert!((s.batch_p99() - 989.01).abs() < 1e-9, "{}", s.batch_p99());
        // Under two batches it is the plain 99th percentile.
        let one = Samples {
            values: s.values[2000..].to_vec(),
        };
        assert_eq!(one.batch_p99(), one.p99_or_tail());
        // The last batch absorbs the remainder: batches 0..999 (p99
        // 989.01) and 0..999 followed by 0..499 (p99 984.01).
        let mut t = Samples::default();
        for i in 0..2500 {
            t.push(f64::from(i % 1000));
        }
        assert!((t.batch_p99() - 986.51).abs() < 1e-9, "{}", t.batch_p99());
    }

    #[test]
    fn deciles_follow_recording_order() {
        let mut s = Samples::default();
        for i in 0..100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.first_last_decile(), (4.5, 94.5));
        let mut one = Samples::default();
        one.push(7.0);
        assert_eq!(one.first_last_decile(), (7.0, 7.0));
    }

    #[test]
    fn tallies_count_attempts_and_failures_per_kind() {
        let mut t = Tally::default();
        t.record("read", true);
        t.record("read", false);
        t.record("write", true);
        t.fail("write");
        assert_eq!(t.attempted(), 3);
        assert_eq!(t.failed(), 2);
        assert_eq!(t.rows(), vec![("read", 2, 1), ("write", 1, 1)]);
        // A doubly-rejected attempt still counts as one failure.
        t.fail("write");
        assert_eq!(t.failed(), 2);
    }
}
