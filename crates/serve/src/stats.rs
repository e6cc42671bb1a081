//! Serving statistics: hand-rolled latency histograms and the metrics
//! report schema.
//!
//! The serving tier records one latency sample per completed request into a
//! fixed-bucket **log2 histogram** ([`LatencyHistogram`]): bucket `i`
//! counts samples in `[2^i, 2^(i+1))` microseconds (bucket 0 also absorbs
//! sub-microsecond samples). Recording is two atomic read-modify-writes — a
//! `Relaxed` max raise, then a `Release` bucket increment that publishes
//! it — so the hot path never takes a lock, and quantiles are read
//! deterministically from a snapshot: a reported percentile is the
//! **inclusive upper bound** of the bucket in which the cumulative count
//! crosses the requested fraction, clamped to the largest observed sample —
//! a conservative (never under-reported) estimate that two readers of the
//! same snapshot always agree on, and never above the observed maximum.
//!
//! [`MetricsReport`] is the data model of the `metrics` wire request (see
//! `docs/WIRE_PROTOCOL.md`): gauges and counters for one serving process,
//! per-request-kind latency summaries, and — on a router — per-shard
//! status rows combining the router's own view (alive/benched/forwarded/
//! respawns) with each shard's latest self-reported gauges.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets: bucket 39 tops out at `2^40 - 1` µs (≈ 12.7
/// days), far beyond any plausible request latency.
pub const LATENCY_BUCKETS: usize = 40;

/// The request kinds latency is tracked for, in reporting order.
pub const LATENCY_KINDS: [&str; 4] = ["optimize", "evaluate", "sweep", "layout"];

/// A fixed-bucket log2 latency histogram with lock-free recording.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; LATENCY_BUCKETS],
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket a sample of `us` microseconds lands in.
fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        ((63 - us.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
    }
}

/// The inclusive upper bound of bucket `i`, in microseconds.
fn bucket_upper_us(i: usize) -> u64 {
    (1u64 << (i + 1)) - 1
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one latency sample. The maximum is raised before the sample
    /// is counted (released by the count), so a snapshot that sees the count
    /// also sees a maximum at least as large.
    pub fn record(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.max_us.fetch_max(us, Ordering::Relaxed);
        self.counts[bucket_index(us)].fetch_add(1, Ordering::Release);
    }

    /// A point-in-time copy of the histogram. Samples recorded concurrently
    /// with the snapshot land in either the snapshot or the next one —
    /// never nowhere. Quantiles are clamped to `max_us`: a bucket's upper
    /// bound can lie far above every sample in it, the true quantile never
    /// does.
    pub fn snapshot(&self) -> LatencySnapshot {
        let mut buckets: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        let count: u64 = buckets.iter().sum();
        let max_us = self.max_us.load(Ordering::Relaxed);
        LatencySnapshot {
            count,
            p50_us: quantile_us(&buckets, 0.50).min(max_us),
            p99_us: quantile_us(&buckets, 0.99).min(max_us),
            max_us,
            buckets,
        }
    }
}

/// The deterministic quantile read: the upper bound of the bucket where the
/// cumulative count first reaches `ceil(q * total)`. Returns 0 for an
/// empty histogram.
fn quantile_us(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= target {
            return bucket_upper_us(i);
        }
    }
    bucket_upper_us(buckets.len().saturating_sub(1))
}

/// A point-in-time latency summary (see [`LatencyHistogram::snapshot`]).
/// `buckets` carries the raw log2 bucket counts with trailing zero buckets
/// trimmed, so a reader can compute its own quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Median latency (bucket upper bound, at most `max_us`), µs.
    pub p50_us: u64,
    /// 99th-percentile latency (bucket upper bound, at most `max_us`), µs.
    pub p99_us: u64,
    /// Largest single sample, µs.
    pub max_us: u64,
    /// Raw log2 bucket counts, trailing zeros trimmed.
    pub buckets: Vec<u64>,
}

/// Per-request-kind latency histograms for one serving process.
#[derive(Debug, Default)]
pub struct KindLatencies {
    histograms: [LatencyHistogram; 4],
}

impl KindLatencies {
    /// Fresh, empty histograms for every kind.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample under the request kind `kind` (as returned by
    /// `RequestBody::kind`). Kinds that are not latency-tracked (ping,
    /// shutdown, metrics, restart) are ignored.
    pub fn record(&self, kind: &str, latency: Duration) {
        if let Some(i) = LATENCY_KINDS.iter().position(|k| *k == kind) {
            self.histograms[i].record(latency);
        }
    }

    /// Snapshots every kind that has at least one sample, in
    /// [`LATENCY_KINDS`] order.
    pub fn snapshot(&self) -> Vec<KindLatency> {
        LATENCY_KINDS
            .iter()
            .zip(&self.histograms)
            .map(|(kind, h)| KindLatency {
                kind: (*kind).to_string(),
                latency: h.snapshot(),
            })
            .filter(|k| k.latency.count > 0)
            .collect()
    }
}

/// One request kind's latency summary inside a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindLatency {
    /// The request kind (`"optimize"`, `"evaluate"`, `"sweep"`, `"layout"`)
    /// — or, in `MetricsReport::stage_latency`, a tracing stage name.
    pub kind: String,
    /// The summary itself.
    pub latency: LatencySnapshot,
}

/// Per-tracing-stage latency histograms, fed by every span the
/// [`crate::trace::Tracer`] records. Snapshotted into
/// `MetricsReport::stage_latency` so `--metrics` and `perf_snapshot` can
/// print a stage breakdown without pulling a full trace.
#[derive(Debug)]
pub struct StageLatencies {
    histograms: [LatencyHistogram; crate::trace::Stage::ALL.len()],
}

impl Default for StageLatencies {
    fn default() -> Self {
        Self::new()
    }
}

impl StageLatencies {
    /// Fresh, empty histograms for every stage.
    pub fn new() -> Self {
        Self {
            histograms: std::array::from_fn(|_| LatencyHistogram::new()),
        }
    }

    /// Records one span duration under its stage.
    pub fn record(&self, stage: crate::trace::Stage, latency: Duration) {
        self.histograms[stage.index()].record(latency);
    }

    /// Snapshots every stage with at least one span, in lifecycle order.
    pub fn snapshot(&self) -> Vec<KindLatency> {
        crate::trace::Stage::ALL
            .iter()
            .zip(&self.histograms)
            .map(|(stage, h)| KindLatency {
                kind: stage.name().to_string(),
                latency: h.snapshot(),
            })
            .filter(|k| k.latency.count > 0)
            .collect()
    }
}

/// One shard's status row inside a router's [`MetricsReport`]: the router's
/// own supervision view plus the shard's latest self-reported gauges
/// (refreshed by every health probe; zero until the first probe answer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// Shard index (position in the tier, stable across respawns).
    pub index: usize,
    /// Whether the router currently considers the shard live.
    pub alive: bool,
    /// Whether the flap breaker has benched the shard (no more respawns).
    pub benched: bool,
    /// Requests forwarded to this shard since startup.
    pub forwarded: usize,
    /// Times this shard was respawned (supervised or via `restart`).
    pub respawns: usize,
    /// Shard-reported request-queue depth.
    pub queue_depth: usize,
    /// Shard-reported in-flight request count.
    pub in_flight: usize,
    /// Shard-reported in-flight high-water mark.
    pub in_flight_high_water: usize,
    /// Shard-reported completed-request count.
    pub completed: usize,
    /// Shard-reported busy rejections.
    pub busy_rejected: usize,
}

/// The `metrics` response payload: one serving process's observable state.
///
/// A plain server reports itself with an empty `shards` list and zero
/// `redispatched`/`respawns`; a router reports tier-level counters plus one
/// [`ShardStatus`] row per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// `"server"` or `"router"`.
    pub role: String,
    /// Backend the litho convolution kernels run on in this process:
    /// `"avx2"` when the CPU has it, else `"scalar"`. Results are
    /// bit-identical across backends; the field is observability, not a
    /// result qualifier.
    pub simd_arch: String,
    /// Current request-queue depth (a server's follow-on tasks are not
    /// counted). A router holds no queue and reports 0.
    pub queue_depth: usize,
    /// Deepest the request queue has ever been (exact; never resets).
    /// A router holds no queue and reports 0.
    pub queue_high_water: usize,
    /// Requests started but not yet answered (popped and planned by a
    /// server's worker, or forwarded by a router).
    pub in_flight: usize,
    /// Most requests ever simultaneously in flight (exact; never resets).
    pub in_flight_high_water: usize,
    /// Requests answered since startup.
    pub completed: usize,
    /// Requests rejected with `busy` since startup.
    pub busy_rejected: usize,
    /// Requests re-routed after a shard failure (router only).
    pub redispatched: usize,
    /// Total shard respawns (router only).
    pub respawns: usize,
    /// Per-request-kind latency summaries (kinds with ≥ 1 sample).
    pub latency: Vec<KindLatency>,
    /// Per-tracing-stage latency summaries (stages with ≥ 1 span; empty
    /// unless tracing has recorded spans — see `--trace-sample`).
    pub stage_latency: Vec<KindLatency>,
    /// Per-shard status rows (router only).
    pub shards: Vec<ShardStatus>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_are_log2_with_saturation() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn quantiles_read_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        for us in [3u64, 3, 3, 3, 3, 3, 3, 3, 3, 900] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        // 9 of 10 samples sit in bucket 1 (upper bound 3 µs); the tail
        // sample sits in bucket 9, whose upper bound (1023 µs) lies above
        // every sample, so the read is clamped to the observed max.
        assert_eq!(s.p50_us, 3);
        assert_eq!(s.p99_us, 900);
        assert_eq!(s.max_us, 900);
    }

    #[test]
    fn max_is_the_exact_observed_sample_not_a_bucket_bound() {
        // Quantiles read bucket *upper bounds* (conservative tails), but
        // `max_us` must be the exact observed maximum — a power-of-two
        // sample sits at the *bottom* of its bucket, where the bound
        // over-states by almost 2×.
        let h = LatencyHistogram::new();
        for _ in 0..9 {
            h.record(Duration::from_micros(1024));
        }
        let s = h.snapshot();
        // 1024 µs lands in bucket 10, whose inclusive upper bound is 2047,
        // but no sample exceeds 1024, so the quantile reads are clamped...
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_upper_us(10), 2047);
        assert_eq!(s.p50_us, 1024);
        assert_eq!(s.p99_us, 1024);
        // ...and max reports the sample itself, not 2047.
        assert_eq!(s.max_us, 1024);
        // Below a larger maximum the median still reads its bucket bound.
        h.record(Duration::from_micros(5000));
        let s = h.snapshot();
        assert_eq!((s.p50_us, s.p99_us, s.max_us), (2047, 5000, 5000));

        // Boundary pins around the bucket edges: top-of-bucket and
        // bottom-of-next-bucket samples keep their exact values.
        for sample in [1u64, 1023, 2047, 2048] {
            let h = LatencyHistogram::new();
            h.record(Duration::from_micros(sample));
            let s = h.snapshot();
            assert_eq!(s.max_us, sample, "exact max for {sample}");
            assert_eq!(s.p99_us, sample, "bound clamped to max for {sample}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against a sorted-sample oracle: the reported p50/p99 never fall
        /// below the nearest-rank quantile of the recorded samples (reads
        /// never under-report) and never exceed the exact maximum.
        #[test]
        fn quantiles_lie_between_the_nearest_rank_sample_and_the_max(
            draws in prop::collection::vec((0u32..24, 0u64..1 << 24), 1..300),
        ) {
            let h = LatencyHistogram::new();
            let mut samples: Vec<u64> = draws.iter().map(|&(bits, v)| v % (1 << bits)).collect();
            for &us in &samples {
                h.record(Duration::from_micros(us));
            }
            samples.sort_unstable();
            let s = h.snapshot();
            let n = samples.len();
            prop_assert_eq!(s.max_us, samples[n - 1]);
            for (q, reported) in [(0.50_f64, s.p50_us), (0.99, s.p99_us)] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let oracle = samples[rank - 1];
                prop_assert!(oracle <= reported && reported <= s.max_us, "q={q}: oracle {oracle}, reported {reported}, max {}", s.max_us);
            }
        }
    }

    #[test]
    fn stage_latencies_snapshot_in_lifecycle_order() {
        let s = StageLatencies::new();
        assert!(s.snapshot().is_empty());
        s.record(crate::trace::Stage::Write, Duration::from_micros(9));
        s.record(crate::trace::Stage::Rasterize, Duration::from_micros(800));
        s.record(crate::trace::Stage::Rasterize, Duration::from_micros(900));
        let snap = s.snapshot();
        let kinds: Vec<&str> = snap.iter().map(|k| k.kind.as_str()).collect();
        assert_eq!(kinds, ["rasterize", "write"]);
        assert_eq!(snap[0].latency.count, 2);
        assert_eq!(snap[0].latency.max_us, 900);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(
            (s.count, s.p50_us, s.p99_us, s.max_us),
            (0, 0, 0, 0),
            "{s:?}"
        );
        assert!(s.buckets.is_empty(), "trailing zeros trimmed: {s:?}");
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        let h = LatencyHistogram::new();
        for us in 0..200u64 {
            h.record(Duration::from_micros(us * us));
        }
        let s = h.snapshot();
        let qs: Vec<u64> = [0.1, 0.25, 0.5, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| quantile_us(&s.buckets, q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    #[test]
    fn kind_latencies_track_known_kinds_only() {
        let k = KindLatencies::new();
        k.record("optimize", Duration::from_micros(10));
        k.record("optimize", Duration::from_micros(12));
        k.record("layout", Duration::from_millis(2));
        k.record("ping", Duration::from_micros(1)); // ignored
        let snap = k.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].kind, "optimize");
        assert_eq!(snap[0].latency.count, 2);
        assert_eq!(snap[1].kind, "layout");
        assert_eq!(snap[1].latency.count, 1);
    }
}
