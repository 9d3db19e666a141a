//! Measurement helpers shared by every model in the workspace.
//!
//! These are plain value types with no kernel coupling beyond taking
//! [`SimTime`]/[`SimDuration`] arguments, so models embed them directly and
//! harnesses read them back after a run.

use crate::error::SimResult;
use crate::json::{ju64, Json};
use crate::snapshot as snap;
use crate::snapshot::Snapshotable;
use crate::time::{SimDuration, SimTime};

/// Tracks how long a binary resource (bus, fabric slot, accelerator) spent
/// busy, as a time-weighted accumulator.
#[derive(Debug, Clone, Default)]
pub struct BusyTracker {
    busy: bool,
    since: SimTime,
    accumulated: SimDuration,
    /// Number of busy periods started.
    pub activations: u64,
}

impl BusyTracker {
    /// New tracker, initially idle at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the resource busy at `now`. Idempotent when already busy.
    pub fn set_busy(&mut self, now: SimTime) {
        if !self.busy {
            self.busy = true;
            self.since = now;
            self.activations += 1;
        }
    }

    /// Mark the resource idle at `now`, accumulating the just-finished busy
    /// period. Idempotent when already idle.
    pub fn set_idle(&mut self, now: SimTime) {
        if self.busy {
            self.busy = false;
            self.accumulated += now.since(self.since);
        }
    }

    /// Apply `count` busy periods of `total` combined length to the idle
    /// resource, the last one starting at `last_start`: the state that a
    /// `set_busy`/`set_idle` pair per period leaves, in O(1).
    pub fn add_busy_periods(&mut self, count: u64, total: SimDuration, last_start: SimTime) {
        debug_assert!(!self.busy, "busy periods added to a busy resource");
        if count == 0 {
            return;
        }
        self.since = last_start;
        self.accumulated += total;
        self.activations += count;
    }

    /// Is the resource currently busy?
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Total busy time up to `now` (includes an in-progress busy period).
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        if self.busy {
            self.accumulated + now.since(self.since)
        } else {
            self.accumulated
        }
    }

    /// Busy fraction over `[SimTime::ZERO, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy_time(now).fraction_of(now.since(SimTime::ZERO))
    }
}

impl Snapshotable for BusyTracker {
    fn snapshot_json(&self) -> Json {
        Json::obj()
            .with("busy", Json::Bool(self.busy))
            .with("since", ju64(self.since.0))
            .with("accumulated", ju64(self.accumulated.0))
            .with("activations", ju64(self.activations))
    }

    fn restore_json(&mut self, state: &Json) -> SimResult<()> {
        self.busy = snap::bool_field(state, "busy")?;
        self.since = SimTime(snap::u64_field(state, "since")?);
        self.accumulated = SimDuration(snap::u64_field(state, "accumulated")?);
        self.activations = snap::u64_field(state, "activations")?;
        Ok(())
    }
}

/// Fixed-bucket latency histogram over durations (log2 buckets in ns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// bucket[i] counts samples with ns in [2^(i-1), 2^i); bucket[0] is <1ns.
    buckets: Vec<u64>,
    count: u64,
    sum: SimDuration,
    min: SimDuration,
    max: SimDuration,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; 40],
            count: 0,
            sum: SimDuration::ZERO,
            min: SimDuration::MAX,
            max: SimDuration::ZERO,
        }
    }
}

impl LatencyHistogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample.
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        self.record_n(d, 1);
    }

    /// Record `n` samples of the same latency `d` in one update.
    #[inline]
    pub fn record_n(&mut self, d: SimDuration, n: u64) {
        if n == 0 {
            return;
        }
        let ns = d.as_fs() / crate::time::FS_PER_NS;
        let bucket = if ns == 0 {
            0
        } else {
            (64 - ns.leading_zeros()) as usize
        };
        let bucket = bucket.min(self.buckets.len() - 1);
        self.buckets[bucket] += n;
        self.count += n;
        self.sum += d * n;
        if d < self.min {
            self.min = d;
        }
        if d > self.max {
            self.max = d;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency; zero when empty.
    pub fn mean(&self) -> SimDuration {
        self.sum
            .as_fs()
            .checked_div(self.count)
            .map(SimDuration)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Smallest sample; zero when empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Structural equality (used by snapshot round-trip assertions; the
    /// type itself avoids `PartialEq` so accidental float-style comparisons
    /// of histograms stay deliberate).
    pub fn same_as(&self, other: &LatencyHistogram) -> bool {
        self.buckets == other.buckets
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
    }

    /// Approximate quantile (bucket upper edge), q in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                let upper_ns = if i == 0 { 1 } else { 1u64 << i };
                return SimDuration::ns(upper_ns);
            }
        }
        self.max
    }
}

impl Snapshotable for LatencyHistogram {
    fn snapshot_json(&self) -> Json {
        // Buckets are serialized sparsely: most of the 40 log2 buckets are
        // empty in any given run.
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| Json::Arr(vec![Json::from(i as u64), ju64(c)]))
            .collect();
        Json::obj()
            .with("buckets", Json::Arr(buckets))
            .with("count", ju64(self.count))
            .with("sum", ju64(self.sum.0))
            .with("min", ju64(self.min.0))
            .with("max", ju64(self.max.0))
    }

    fn restore_json(&mut self, state: &Json) -> SimResult<()> {
        *self = LatencyHistogram::new();
        for pair in snap::arr_field(state, "buckets")? {
            let p = pair
                .as_arr()
                .ok_or_else(|| snap::err("histogram bucket entry is not a pair"))?;
            let (i, c) = match p {
                [i, c] => (
                    crate::json::ju64_of(i).ok_or_else(|| snap::err("bad bucket index"))?,
                    crate::json::ju64_of(c).ok_or_else(|| snap::err("bad bucket count"))?,
                ),
                _ => return Err(snap::err("histogram bucket entry is not a pair")),
            };
            let i = i as usize;
            if i >= self.buckets.len() {
                return Err(snap::err(format!("histogram bucket {i} out of range")));
            }
            self.buckets[i] = c;
        }
        self.count = snap::u64_field(state, "count")?;
        self.sum = SimDuration(snap::u64_field(state, "sum")?);
        self.min = SimDuration(snap::u64_field(state, "min")?);
        self.max = SimDuration(snap::u64_field(state, "max")?);
        Ok(())
    }
}

/// Streaming mean/min/max of an f64 series.
#[derive(Debug, Clone)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Summary {
    /// New, empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }
    /// Mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
    /// Minimum (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }
    /// Maximum (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// A digest of [`KernelMetrics`] normalized into rates — the numbers the
/// perf harness and throughput reports consume.
///
/// [`KernelMetrics`]: crate::kernel::KernelMetrics
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchProfile {
    /// Component deliveries per wall-clock second.
    pub events_per_sec: f64,
    /// Mean delta cycles executed per visited timestep.
    pub avg_deltas_per_timestep: f64,
    /// Fraction of periodic (clock-edge) events served by the per-clock
    /// fast path instead of the general heap.
    pub fast_clock_fraction: f64,
    /// Subscriber notifications fanned out per dispatched event.
    pub notifications_per_event: f64,
    /// Peak number of entries resident in the timed-event queue — the
    /// pre-reserve hint for the next run of a sweep.
    pub queue_high_water: u64,
    /// Compact byte size of the most recent full snapshot document
    /// (0 when the run never snapshotted).
    pub snapshot_full_bytes: u64,
    /// Compact byte size of the most recent delta document (0 when no
    /// delta was captured) — compare against `snapshot_full_bytes` for the
    /// incremental-snapshot compression ratio.
    pub snapshot_delta_bytes: u64,
    /// Components restored or serialized by the most recent incremental
    /// operation (delta capture or warm rewind).
    pub snapshot_dirty_components: u64,
}

impl DispatchProfile {
    /// Summarize `m` over a measured wall-clock duration.
    pub fn from_metrics(m: &crate::kernel::KernelMetrics, wall_seconds: f64) -> Self {
        let frac = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        DispatchProfile {
            events_per_sec: if wall_seconds > 0.0 {
                m.dispatched as f64 / wall_seconds
            } else {
                0.0
            },
            avg_deltas_per_timestep: frac(m.delta_cycles, m.timesteps),
            fast_clock_fraction: frac(m.clock_edges_fast, m.clock_edges_fast + m.heap_events),
            notifications_per_event: frac(m.notifications, m.dispatched),
            queue_high_water: m.queue_high_water,
            snapshot_full_bytes: m.snapshot_full_bytes,
            snapshot_delta_bytes: m.snapshot_delta_bytes,
            snapshot_dirty_components: m.snapshot_dirty_components,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_tracker_accumulates_periods() {
        let mut b = BusyTracker::new();
        b.set_busy(SimTime(100));
        b.set_idle(SimTime(300));
        b.set_busy(SimTime(500));
        b.set_idle(SimTime(600));
        assert_eq!(b.busy_time(SimTime(1000)), SimDuration(300));
        assert_eq!(b.activations, 2);
        assert!(!b.is_busy());
    }

    #[test]
    fn busy_tracker_counts_open_period() {
        let mut b = BusyTracker::new();
        b.set_busy(SimTime(0));
        assert_eq!(b.busy_time(SimTime(400)), SimDuration(400));
        assert_eq!(b.utilization(SimTime(400)), 1.0);
        // Idempotent busy does not restart the period.
        b.set_busy(SimTime(200));
        assert_eq!(b.activations, 1);
        assert_eq!(b.busy_time(SimTime(400)), SimDuration(400));
    }

    #[test]
    fn busy_tracker_idle_is_idempotent() {
        let mut b = BusyTracker::new();
        b.set_idle(SimTime(100));
        assert_eq!(b.busy_time(SimTime(100)), SimDuration::ZERO);
        assert_eq!(b.utilization(SimTime(0)), 0.0);
    }

    #[test]
    fn histogram_tracks_extremes_and_mean() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ns(10));
        h.record(SimDuration::ns(20));
        h.record(SimDuration::ns(30));
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), SimDuration::ns(20));
        assert_eq!(h.min(), SimDuration::ns(10));
        assert_eq!(h.max(), SimDuration::ns(30));
    }

    #[test]
    fn histogram_record_n_equals_n_records() {
        let cases = [
            (SimDuration::ZERO, 0),
            (SimDuration::ZERO, 7),
            (SimDuration::ns(37), 0),
            (SimDuration::ns(37), 1),
            (SimDuration::ns(37), 300),
            (SimDuration::fs(999), 5),
            (SimDuration::ns(1 << 40), 3),
        ];
        for (d, n) in cases {
            // Start from a histogram with other samples in it, so min and
            // max are tested against existing values too.
            let mut seeded = LatencyHistogram::new();
            seeded.record(SimDuration::ns(5));
            seeded.record(SimDuration::ns(500));
            for mut want in [LatencyHistogram::new(), seeded] {
                let mut got = want.clone();
                got.record_n(d, n);
                for _ in 0..n {
                    want.record(d);
                }
                assert!(
                    got.same_as(&want),
                    "record_n({d:?}, {n}): {got:?} vs {want:?}"
                );
                assert_eq!(got.count(), want.count());
                assert_eq!(got.min(), want.min());
                assert_eq!(got.max(), want.max());
                assert_eq!(got.mean(), want.mean());
            }
        }
        let mut h = LatencyHistogram::new();
        h.record_n(SimDuration::ns(40), 4);
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), SimDuration::ns(40));
        assert_eq!(h.min(), SimDuration::ns(40));
        assert_eq!(h.quantile(1.0), SimDuration::ns(64));
        let mut empty = LatencyHistogram::new();
        empty.record_n(SimDuration::ns(40), 0);
        assert!(
            empty.same_as(&LatencyHistogram::new()),
            "n = 0 records nothing"
        );
    }

    #[test]
    fn histogram_quantile_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100u64 {
            h.record(SimDuration::ns(i));
        }
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(q50 <= q99);
        assert!(q99 <= SimDuration::ns(128)); // bucket upper edge
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.5), SimDuration::ZERO);
    }

    #[test]
    fn dispatch_profile_normalizes_counters() {
        let m = crate::kernel::KernelMetrics {
            dispatched: 1000,
            delta_cycles: 400,
            timesteps: 200,
            max_deltas_in_step: 3,
            clock_edges_fast: 300,
            heap_events: 100,
            notifications: 2500,
            queue_high_water: 42,
            ..Default::default()
        };
        let p = DispatchProfile::from_metrics(&m, 0.5);
        assert_eq!(p.events_per_sec, 2000.0);
        assert_eq!(p.avg_deltas_per_timestep, 2.0);
        assert_eq!(p.fast_clock_fraction, 0.75);
        assert_eq!(p.notifications_per_event, 2.5);
        assert_eq!(p.queue_high_water, 42);
        // Degenerate denominators are zero, not NaN.
        let z = DispatchProfile::from_metrics(&crate::kernel::KernelMetrics::default(), 0.0);
        assert_eq!(z.events_per_sec, 0.0);
        assert_eq!(z.fast_clock_fraction, 0.0);
    }

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        s.record(1.0);
        s.record(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.sum(), 4.0);
    }
}
