//! Bus observability: utilization, contention and latency statistics.

use std::fmt;

use drcf_kernel::json::{ju64, Json};
use drcf_kernel::prelude::*;
use drcf_kernel::snapshot::{self as snap, Snapshotable};

/// Statistics one bus instance accumulates during a run.
#[derive(Default)]
pub struct BusStats {
    /// Bus occupancy (busy during address/data phases, and during the slave
    /// wait in blocking mode).
    pub busy: BusyTracker,
    /// Grants per master, in discovery order.
    pub grants: Vec<(ComponentId, u64)>,
    /// Requests accepted.
    pub requests: u64,
    /// Responses delivered to masters.
    pub responses: u64,
    /// Words moved across the bus (reads + writes).
    pub words: u64,
    /// Requests that decoded to no slave.
    pub decode_errors: u64,
    /// Requests answered with an injected fault
    /// (see `BusConfig::fault_ranges`).
    pub injected_faults: u64,
    /// Queue-wait time from request arrival to grant.
    pub wait: LatencyHistogram,
    /// Queue-wait histograms per master, in discovery order — the raw
    /// material of the [`BusContention`] report.
    pub per_master_wait: Vec<(ComponentId, LatencyHistogram)>,
    /// Largest pending-queue depth observed.
    pub max_queue: usize,
}

impl BusStats {
    /// Total grants across masters.
    pub fn total_grants(&self) -> u64 {
        self.grants.iter().map(|&(_, g)| g).sum()
    }

    /// Grants for one master.
    pub fn grants_for(&self, master: ComponentId) -> u64 {
        self.grants
            .iter()
            .find(|&&(m, _)| m == master)
            .map(|&(_, g)| g)
            .unwrap_or(0)
    }

    /// Record `n` grants for `master` that each waited `wait` from request
    /// arrival, in the grant counts and in both the aggregate and the
    /// per-master wait histogram.
    #[inline]
    pub fn record_grants(&mut self, master: ComponentId, wait: SimDuration, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(e) = self.grants.iter_mut().find(|e| e.0 == master) {
            e.1 += n;
        } else {
            self.grants.push((master, n));
        }
        self.wait.record_n(wait, n);
        if let Some(e) = self.per_master_wait.iter_mut().find(|e| e.0 == master) {
            e.1.record_n(wait, n);
        } else {
            let mut h = LatencyHistogram::new();
            h.record_n(wait, n);
            self.per_master_wait.push((master, h));
        }
    }

    /// Bus utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy.utilization(now)
    }

    /// Derive the per-master contention report; `name` resolves a master's
    /// component id to a display label.
    pub fn contention(&self, name: impl Fn(ComponentId) -> String) -> BusContention {
        let mut rows: Vec<ContentionRow> = self
            .per_master_wait
            .iter()
            .map(|(master, wait)| ContentionRow {
                master: name(*master),
                grants: self.grants_for(*master),
                wait: wait.clone(),
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.grants));
        BusContention { rows }
    }
}

impl Snapshotable for BusStats {
    fn snapshot_json(&self) -> Json {
        Json::obj()
            .with("busy", self.busy.snapshot_json())
            .with(
                "grants",
                Json::Arr(
                    self.grants
                        .iter()
                        .map(|&(id, g)| Json::Arr(vec![ju64(id as u64), ju64(g)]))
                        .collect(),
                ),
            )
            .with("requests", ju64(self.requests))
            .with("responses", ju64(self.responses))
            .with("words", ju64(self.words))
            .with("decode_errors", ju64(self.decode_errors))
            .with("injected_faults", ju64(self.injected_faults))
            .with("wait", self.wait.snapshot_json())
            .with(
                "per_master_wait",
                Json::Arr(
                    self.per_master_wait
                        .iter()
                        .map(|(id, h)| Json::Arr(vec![ju64(*id as u64), h.snapshot_json()]))
                        .collect(),
                ),
            )
            .with("max_queue", ju64(self.max_queue as u64))
    }

    fn restore_json(&mut self, state: &Json) -> SimResult<()> {
        self.busy.restore_json(snap::field(state, "busy")?)?;
        self.grants.clear();
        for e in snap::arr_field(state, "grants")? {
            let pair = e.as_arr().filter(|p| p.len() == 2);
            let (id, g) = pair
                .and_then(|p| {
                    Some((
                        drcf_kernel::json::ju64_of(&p[0])?,
                        drcf_kernel::json::ju64_of(&p[1])?,
                    ))
                })
                .ok_or_else(|| snap::err("malformed bus-stats grant entry"))?;
            self.grants.push((id as ComponentId, g));
        }
        self.requests = snap::u64_field(state, "requests")?;
        self.responses = snap::u64_field(state, "responses")?;
        self.words = snap::u64_field(state, "words")?;
        self.decode_errors = snap::u64_field(state, "decode_errors")?;
        self.injected_faults = snap::u64_field(state, "injected_faults")?;
        self.wait.restore_json(snap::field(state, "wait")?)?;
        self.per_master_wait.clear();
        for e in snap::arr_field(state, "per_master_wait")? {
            let pair = e
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| snap::err("malformed per-master wait entry"))?;
            let id = drcf_kernel::json::ju64_of(&pair[0])
                .ok_or_else(|| snap::err("per-master wait id is not a u64"))?;
            let mut h = LatencyHistogram::new();
            h.restore_json(&pair[1])?;
            self.per_master_wait.push((id as ComponentId, h));
        }
        self.max_queue = snap::usize_field(state, "max_queue")?;
        Ok(())
    }
}

/// One master's row of the [`BusContention`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionRow {
    /// Master display name.
    pub master: String,
    /// Grants this master received.
    pub grants: u64,
    /// Grant-latency (queue wait) histogram for this master.
    pub wait: LatencyHistogram,
}

/// Per-master grant-latency report: who got the bus, how often, and how
/// long they queued for it. Derived from [`BusStats::per_master_wait`];
/// render with `Display`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusContention {
    /// Rows, sorted by grant count (heaviest master first).
    pub rows: Vec<ContentionRow>,
}

impl BusContention {
    /// True when no grants were recorded (e.g. tracing a bus-less SoC).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for BusContention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14} {:>8} {:>12} {:>12} {:>12}",
            "master", "grants", "mean wait", "p95 wait", "max wait"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>8} {:>12} {:>12} {:>12}",
                r.master,
                r.grants,
                format!("{}", r.wait.mean()),
                format!("{}", r.wait.quantile(0.95)),
                format!("{}", r.wait.max()),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_accounting() {
        let mut s = BusStats::default();
        s.record_grants(3, SimDuration::ZERO, 1);
        s.record_grants(3, SimDuration::ZERO, 1);
        s.record_grants(7, SimDuration::ZERO, 1);
        assert_eq!(s.grants_for(3), 2);
        assert_eq!(s.grants_for(7), 1);
        assert_eq!(s.grants_for(9), 0);
        assert_eq!(s.total_grants(), 3);
    }

    #[test]
    fn per_master_wait_feeds_the_contention_report() {
        let mut s = BusStats::default();
        s.record_grants(1, SimDuration::ns(10), 1);
        s.record_grants(1, SimDuration::ns(30), 1);
        s.record_grants(2, SimDuration::ns(5), 1);
        assert_eq!(s.wait.count(), 3, "aggregate histogram still fed");
        let c = s.contention(|id| format!("m{id}"));
        assert_eq!(c.rows.len(), 2);
        assert_eq!(c.rows[0].master, "m1", "heaviest master first");
        assert_eq!(c.rows[0].grants, 2);
        assert_eq!(c.rows[0].wait.mean(), SimDuration::ns(20));
        assert_eq!(c.rows[1].wait.count(), 1);
        let shown = format!("{c}");
        assert!(shown.contains("mean wait"));
        assert!(shown.contains("m1"));
    }

    #[test]
    fn record_grants_equals_repeated_single_grants() {
        let seed = |s: &mut BusStats| s.record_grants(2, SimDuration::ns(15), 1);
        let cases = [
            (2, SimDuration::ZERO, 6),
            (5, SimDuration::ns(30), 3),
            (5, SimDuration::ZERO, 0),
        ];
        for (master, wait, n) in cases {
            let (mut got, mut want) = (BusStats::default(), BusStats::default());
            seed(&mut got);
            seed(&mut want);
            got.record_grants(master, wait, n);
            for _ in 0..n {
                want.record_grants(master, wait, 1);
            }
            assert_eq!(
                got.snapshot_json().to_string(),
                want.snapshot_json().to_string(),
                "record_grants({master}, {wait:?}, {n})"
            );
        }
    }

    #[test]
    fn empty_contention_report() {
        let s = BusStats::default();
        let c = s.contention(|id| id.to_string());
        assert!(c.is_empty());
        assert!(format!("{c}").contains("master"));
    }

    #[test]
    fn utilization_follows_busy_tracker() {
        let mut s = BusStats::default();
        s.busy.set_busy(SimTime(0));
        s.busy.set_idle(SimTime(500));
        assert_eq!(s.utilization(SimTime(1000)), 0.5);
    }
}
