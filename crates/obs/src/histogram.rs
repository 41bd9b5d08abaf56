//! Lock-free log-bucketed histogram, shared across the stack.
//!
//! Promoted out of `rc-serve` so every subsystem — the coalescer, the
//! WAL — records into the same bucket layout and per-thread/per-family
//! histograms can be [`merge`](Histogram::merge)d into one snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

/// 8 exact sub-8ns buckets + 4 sub-buckets per octave for exponents
/// 3..=63: `8 + 61 * 4 = 252`.
const BUCKETS: usize = 252;

/// Concurrent log-linear histogram: each power-of-two octave splits into
/// 4 linear sub-buckets (values below 8 are exact), so a reported
/// percentile overshoots the true value by at most 25% — where plain
/// power-of-two buckets are off by up to 2x and collapse nearby
/// percentiles onto the same bound. Recording is a single relaxed
/// `fetch_add`; percentiles are computed from a snapshot. Values are
/// nanoseconds everywhere in this workspace, but the bucket math is
/// unit-agnostic.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

/// Bucket index of `ns`: identity below 8; otherwise the octave
/// (`e = floor(log2 ns)`) selects a group of 4 and the two bits below
/// the leading bit select the sub-bucket.
fn bucket_of(ns: u64) -> usize {
    if ns < 8 {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros() as usize;
    let sub = ((ns >> (e - 2)) & 3) as usize;
    8 + (e - 3) * 4 + sub
}

/// Inclusive upper bound of bucket `i` — the value `summary` reports
/// when a percentile lands there. Pessimistic (every sample in the
/// bucket is `<=` it) and tight to 25%.
fn bucket_upper(i: usize) -> u64 {
    if i < 8 {
        return i as u64;
    }
    let e = 3 + (i - 8) / 4;
    let sub = ((i - 8) % 4) as u128;
    let bound = (1u128 << e) + (sub + 1) * (1u128 << (e - 2)) - 1;
    bound.min(u64::MAX as u128) as u64
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Bucket-wise saturating merge of `other` into `self`, so
    /// per-thread or per-family histograms can be aggregated into one
    /// snapshot. Because both sides share the bucket layout, a merged
    /// percentile is exactly the percentile a single histogram fed the
    /// pooled samples would report — bounding the true pooled-sample
    /// percentile from above by at most 25% (the bucket guarantee).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        let merged_sum = self
            .sum_ns
            .load(Ordering::Relaxed)
            .saturating_add(other.sum_ns.load(Ordering::Relaxed));
        self.sum_ns.store(merged_sum, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot for reporting.
    pub fn summary(&self) -> HistogramSummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        let pct = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut acc = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                acc += c;
                if acc >= target {
                    // Upper bound of the bucket: pessimistic but stable.
                    return bucket_upper(i);
                }
            }
            u64::MAX
        };
        HistogramSummary {
            count,
            sum_ns,
            mean_ns: sum_ns.checked_div(count).unwrap_or(0),
            p50_ns: pct(0.50),
            p95_ns: pct(0.95),
            p99_ns: pct(0.99),
        }
    }
}

/// Percentile snapshot of a [`Histogram`] (bucket upper bounds, within
/// 25% of the true value).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Running sum of all samples (may wrap for extreme totals).
    pub sum_ns: u64,
    /// Exact mean (from the running sum, not the buckets).
    pub mean_ns: u64,
    /// Median (quarter-octave resolution).
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_land_in_buckets() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(1_000); // bucket [512, 1024)
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket [2^19, 2^20)
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p50_ns >= 1_000 && s.p50_ns < 2_048, "p50 {}", s.p50_ns);
        assert!(s.p99_ns >= 1_000_000, "p99 {}", s.p99_ns);
        assert_eq!(s.mean_ns, (90 * 1_000 + 10 * 1_000_000) / 100);
    }

    #[test]
    fn empty_histogram() {
        let s = Histogram::default().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ns, 0);
    }

    #[test]
    fn zero_ns_sample_is_clamped() {
        let h = Histogram::default();
        h.record(0);
        assert_eq!(h.summary().count, 1);
    }

    #[test]
    fn single_sample_pins_every_percentile() {
        let h = Histogram::default();
        h.record(5_000); // bucket [4096, 8192)
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean_ns, 5_000);
        for p in [s.p50_ns, s.p95_ns, s.p99_ns] {
            assert!((4_096..8_192).contains(&p), "percentile {p} off-bucket");
        }
    }

    #[test]
    fn bucket_saturation_at_u64_max() {
        // u64::MAX lands in the top bucket; its reported upper bound must
        // clamp to u64::MAX instead of overflowing 2^64.
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.p50_ns, u64::MAX);
        assert_eq!(s.p99_ns, u64::MAX);
        // The running sum wraps (relaxed fetch_add), but count stays exact.
        assert_eq!(h.summary().count, 2);
    }

    #[test]
    fn p99_on_tiny_counts_tracks_the_maximum() {
        // With fewer than 100 samples, ceil(count * 0.99) == count, so
        // p99 must sit in the slowest sample's bucket — one outlier among
        // two samples is "the p99".
        let h = Histogram::default();
        h.record(1_000); // [512, 1024)
        h.record(1 << 30); // [2^30, 2^31)
        let s = h.summary();
        assert!(s.p50_ns < 2_048, "p50 {}", s.p50_ns);
        assert!(s.p99_ns >= (1 << 30), "p99 {}", s.p99_ns);
        // Rank boundary: with 99 fast + 1 slow the ceil-rank p99 target
        // is rank 99 — still the fast bucket; a second slow sample pushes
        // rank 100 of 101 into the slow bucket.
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1 << 30);
        let s = h.summary();
        assert!(s.p95_ns < 2_048, "p95 {}", s.p95_ns);
        assert!(
            s.p99_ns < 2_048,
            "p99 rank 99/100 is fast, got {}",
            s.p99_ns
        );
        h.record(1 << 30);
        let s = h.summary();
        assert!(
            s.p99_ns >= (1 << 30),
            "p99 rank 100/101 is slow, got {}",
            s.p99_ns
        );
    }

    #[test]
    fn quarter_octave_buckets_separate_same_octave_percentiles() {
        // The regression that motivated the quarter-octave layout: 2.4 ms
        // and 3.9 ms share the [2^21, 2^22) octave, so power-of-two
        // buckets report both p50 and p99 as 4194303 ns. Quarter-octave
        // sub-buckets must keep them apart.
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(2_400_000);
        }
        for _ in 0..10 {
            h.record(3_900_000);
        }
        let s = h.summary();
        assert_eq!(s.p50_ns, 2_621_439, "p50 in [2^21, 2^21 + 2^19)");
        assert_eq!(s.p99_ns, 4_194_303, "p99 in [2^21 + 3*2^19, 2^22)");
        assert!(s.p50_ns < s.p99_ns, "same-octave percentiles separated");
    }

    #[test]
    fn bucket_bounds_are_pinned() {
        // Boundary pins for the index/bound math: exact below 8 ns,
        // then 4 sub-buckets per octave.
        for ns in 0..8u64 {
            assert_eq!(bucket_of(ns), ns as usize);
            assert_eq!(bucket_upper(ns as usize), ns);
        }
        // First octave group: [8,10) [10,12) [12,14) [14,16).
        assert_eq!(bucket_of(8), 8);
        assert_eq!(bucket_upper(8), 9);
        assert_eq!(bucket_of(10), 9);
        assert_eq!(bucket_of(15), 11);
        assert_eq!(bucket_upper(11), 15);
        // 1000 ns sits in [896, 1024) — upper bound 1023.
        assert_eq!(bucket_upper(bucket_of(1_000)), 1_023);
        // 5000 ns sits in [4096, 5120) — upper bound 5119.
        assert_eq!(bucket_upper(bucket_of(5_000)), 5_119);
        // Top bucket clamps to u64::MAX instead of overflowing 2^64.
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn reported_bound_within_25_percent_of_sample() {
        // The design guarantee: a percentile overshoots the true sample
        // value by at most 25% (and never undershoots).
        let mut ns = 1u64;
        while ns < u64::MAX / 3 {
            let upper = bucket_upper(bucket_of(ns));
            assert!(upper >= ns, "upper {upper} < sample {ns}");
            assert!(
                (upper as u128) <= (ns as u128) * 5 / 4,
                "upper {upper} overshoots {ns} by more than 25%"
            );
            ns = ns.saturating_mul(7) / 3 + 1; // irregular stride across octaves
        }
    }

    #[test]
    fn percentile_ordering_is_monotone() {
        let h = Histogram::default();
        for i in 1..=1_000u64 {
            h.record(i * 1_000);
        }
        let s = h.summary();
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
        assert!(s.mean_ns > 0);
    }

    /// Deterministic xorshift so the merge property test needs no RNG dep.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn merge_equals_pooled_histogram() {
        // Merging k part-histograms must be indistinguishable from one
        // histogram fed every sample.
        let mut seed = 0x5EED_CAFE_u64;
        let parts: Vec<Histogram> = (0..4).map(|_| Histogram::default()).collect();
        let pooled = Histogram::default();
        for i in 0..10_000u64 {
            // Cap at 2^48 so the pooled running sum cannot wrap.
            let v = xorshift(&mut seed) >> (16 + i % 48);
            parts[(i % 4) as usize].record(v);
            pooled.record(v);
        }
        let merged = Histogram::default();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.summary(), pooled.summary());
    }

    #[test]
    fn merged_percentiles_bound_pooled_sample_percentiles() {
        // Property: for a random split of random samples into per-thread
        // histograms, each merged percentile is >= the exact pooled-sample
        // percentile and overshoots it by at most 25% (+7 absolute slack
        // for the exact sub-8 buckets' integer boundaries).
        let mut seed = 0xD15EA5E_u64;
        for round in 0..20 {
            let k = 2 + (round % 5) as usize;
            let parts: Vec<Histogram> = (0..k).map(|_| Histogram::default()).collect();
            let n = 500 + (round * 137) as usize;
            let mut samples: Vec<u64> = (0..n)
                .map(|_| xorshift(&mut seed) % (1u64 << (10 + round % 30)))
                .collect();
            for (i, &s) in samples.iter().enumerate() {
                parts[i % k].record(s);
            }
            let merged = Histogram::default();
            for p in &parts {
                merged.merge(p);
            }
            let s = merged.summary();
            samples.sort_unstable();
            for (q, got) in [(0.50, s.p50_ns), (0.95, s.p95_ns), (0.99, s.p99_ns)] {
                let rank = ((n as f64) * q).ceil().max(1.0) as usize;
                let exact = samples[rank - 1];
                assert!(got >= exact, "round {round}: q{q} {got} < exact {exact}");
                assert!(
                    (got as u128) <= (exact as u128) * 5 / 4 + 7,
                    "round {round}: q{q} {got} overshoots exact {exact}"
                );
            }
            assert_eq!(s.count, n as u64);
        }
    }

    #[test]
    fn merge_saturates_instead_of_wrapping_sum() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.record(u64::MAX - 10);
        b.record(u64::MAX - 10);
        a.merge(&b);
        let s = a.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum_ns, u64::MAX, "merge saturates the running sum");
    }
}
