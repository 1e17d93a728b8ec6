//! Lock-free serving telemetry: a log2-bucketed latency histogram and the
//! JSON-friendly [`ServingReport`] snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 latency buckets. Bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds (bucket 0 additionally holds 0µs), so 40
/// buckets span sub-microsecond to ~12.7 days — every latency this harness
/// can produce.
const BUCKETS: usize = 40;

/// Fixed-size log2 histogram of per-request latencies in microseconds.
///
/// Recording is a single relaxed atomic increment, so concurrent callers
/// can record without a lock. Percentiles are approximate (bucket upper
/// bound), which is plenty for SLO accounting — the error is at most 2x,
/// uniform across the distribution's tail.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn bucket_of(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((63 - us.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Record one latency sample.
    pub fn record(&self, us: u64) {
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `p`-th percentile (0.0..=1.0) as the upper bound of the bucket
    /// containing it, in microseconds. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        // Rank of the sample we want, 1-based; p=1.0 picks the last sample.
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i: 2^(i+1) - 1, except bucket 0
                // whose lower edge also covers 0µs.
                return if i == 0 { 1 } else { (1u64 << (i + 1)) - 1 };
            }
        }
        (1u64 << BUCKETS) - 1
    }
}

/// Point-in-time summary of a server's activity, suitable for events,
/// benches, and the CLI (hence `Serialize`).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ServingReport {
    /// Requests received (including shed ones).
    pub requests: u64,
    /// Graphs predicted.
    pub graphs: u64,
    /// Prediction calls: one per non-empty request, each on its caller's
    /// thread.
    pub flushes: u64,
    /// Requests predicted after the server had shut down.
    pub shed: u64,
    /// Always 0: requests are never queued. Kept so that existing readers
    /// still compile.
    pub queue_depth_max: u64,
    /// Always 0.0: requests are never coalesced. Kept so that existing
    /// readers still compile.
    pub batch_fill: f64,
    /// Median per-request latency, microseconds (bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_us: u64,
    /// Model swaps installed so far (rollbacks do not subtract).
    pub swaps: u64,
    /// Epoch ordinal of the currently served model.
    pub epoch: u64,
    /// Name of the currently served model.
    pub model_name: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), 0, "empty histogram reports 0");
        for us in [3u64, 3, 3, 3, 3, 3, 3, 3, 3, 900] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        // p50 lands in the [2,4) bucket -> upper bound 3.
        assert_eq!(h.percentile(0.5), 3);
        // p99 of 10 samples is the max -> 900 lives in [512,1024) -> 1023.
        assert_eq!(h.percentile(0.99), 1023);
        // Bounds are monotone in p.
        assert!(h.percentile(0.1) <= h.percentile(0.9));
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(0.0), 1);
        assert!(h.percentile(1.0) > 1);
    }
}
