//! Run records — the rows of every experiment table.

use crate::json::{Json, JsonError};
use drcf_soc::prelude::RunMetrics;

/// One simulation's outcome, flattened for tables and JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Scenario label.
    pub scenario: String,
    /// Named parameters of this point.
    pub params: Vec<(String, String)>,
    /// Application makespan in nanoseconds.
    pub makespan_ns: f64,
    /// Bus utilization in [0, 1].
    pub bus_utilization: f64,
    /// Words moved on the bus.
    pub bus_words: u64,
    /// Context switches.
    pub switches: u64,
    /// Configuration words streamed.
    pub config_words: u64,
    /// Fraction of the run lost to blocking reconfiguration.
    pub reconfig_overhead: f64,
    /// Context scheduler hit rate.
    pub hit_rate: f64,
    /// Fabric energy in millijoules.
    pub energy_mj: f64,
    /// Area proxy in equivalent gates.
    pub area_gates: u64,
    /// Run completed cleanly.
    pub ok: bool,
    /// Why the run failed (typed simulation error or panic message), when
    /// `ok` is false.
    pub error: Option<String>,
    /// Distinct fabric contexts that loaded at least once (from the run's
    /// [`ReconfigTimeline`](drcf_core::prelude::ReconfigTimeline)).
    pub contexts_loaded: u64,
    /// Total time spent reconfiguring (blocking + overlapped), ns.
    pub reconfig_ns: f64,
}

impl RunRecord {
    /// Build from SoC run metrics.
    pub fn from_metrics(scenario: &str, params: Vec<(String, String)>, m: &RunMetrics) -> Self {
        RunRecord {
            scenario: scenario.to_string(),
            params,
            makespan_ns: m.makespan.as_ns_f64(),
            bus_utilization: m.bus_utilization,
            bus_words: m.bus_words,
            switches: m.switches,
            config_words: m.config_words,
            reconfig_overhead: m.reconfig_overhead,
            hit_rate: m.hit_rate,
            energy_mj: m.fabric_energy_mj,
            area_gates: m.area_gates,
            ok: m.ok,
            error: m.error.clone(),
            contexts_loaded: m.timeline.contexts_loaded,
            reconfig_ns: m.timeline.total_reconfig.as_ns_f64(),
        }
    }

    /// A record for a point whose evaluation failed or panicked: metrics
    /// are zeroed, `makespan_ns` is infinite so failed points sort last,
    /// and `error` carries the reason. Sweeps use this to keep one bad
    /// point from discarding the rest of the exploration.
    pub fn failed(scenario: &str, params: Vec<(String, String)>, error: impl Into<String>) -> Self {
        RunRecord {
            scenario: scenario.to_string(),
            params,
            makespan_ns: f64::INFINITY,
            bus_utilization: 0.0,
            bus_words: 0,
            switches: 0,
            config_words: 0,
            reconfig_overhead: 0.0,
            hit_rate: 0.0,
            energy_mj: 0.0,
            area_gates: 0,
            ok: false,
            error: Some(error.into()),
            contexts_loaded: 0,
            reconfig_ns: 0.0,
        }
    }

    /// Fetch a named parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Throughput proxy: work items per millisecond given `items` of work.
    pub fn items_per_ms(&self, items: u64) -> f64 {
        if self.makespan_ns == 0.0 {
            0.0
        } else {
            items as f64 / (self.makespan_ns / 1e6)
        }
    }

    /// Encode as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("scenario", self.scenario.as_str().into())
            .with(
                "params",
                Json::Arr(
                    self.params
                        .iter()
                        .map(|(k, v)| Json::Arr(vec![k.as_str().into(), v.as_str().into()]))
                        .collect(),
                ),
            )
            .with("makespan_ns", self.makespan_ns.into())
            .with("bus_utilization", self.bus_utilization.into())
            .with("bus_words", self.bus_words.into())
            .with("switches", self.switches.into())
            .with("config_words", self.config_words.into())
            .with("reconfig_overhead", self.reconfig_overhead.into())
            .with("hit_rate", self.hit_rate.into())
            .with("energy_mj", self.energy_mj.into())
            .with("area_gates", self.area_gates.into())
            .with("ok", self.ok.into())
            .with(
                "error",
                match &self.error {
                    Some(e) => e.as_str().into(),
                    None => Json::Null,
                },
            )
            .with("contexts_loaded", self.contexts_loaded.into())
            .with("reconfig_ns", self.reconfig_ns.into())
    }

    /// Decode from the JSON produced by [`RunRecord::to_json`].
    pub fn from_json(v: &Json) -> Result<RunRecord, JsonError> {
        let field = |k: &str| {
            v.get(k).ok_or(JsonError {
                pos: 0,
                message: format!("missing field {k}"),
            })
        };
        let bad = |k: &str| JsonError {
            pos: 0,
            message: format!("bad field {k}"),
        };
        let num = |k: &str| field(k)?.as_f64().ok_or_else(|| bad(k));
        let int = |k: &str| field(k)?.as_u64().ok_or_else(|| bad(k));
        let mut params = Vec::new();
        for p in field("params")?.as_arr().ok_or_else(|| bad("params"))? {
            match p.as_arr() {
                Some([k, val]) => params.push((
                    k.as_str().ok_or_else(|| bad("params"))?.to_string(),
                    val.as_str().ok_or_else(|| bad("params"))?.to_string(),
                )),
                _ => return Err(bad("params")),
            }
        }
        Ok(RunRecord {
            scenario: field("scenario")?
                .as_str()
                .ok_or_else(|| bad("scenario"))?
                .to_string(),
            params,
            // Failed records carry an infinite makespan, which JSON can only
            // spell as null; read that back as infinity.
            makespan_ns: match field("makespan_ns")? {
                Json::Null => f64::INFINITY,
                other => other.as_f64().ok_or_else(|| bad("makespan_ns"))?,
            },
            bus_utilization: num("bus_utilization")?,
            bus_words: int("bus_words")?,
            switches: int("switches")?,
            config_words: int("config_words")?,
            reconfig_overhead: num("reconfig_overhead")?,
            hit_rate: num("hit_rate")?,
            energy_mj: num("energy_mj")?,
            area_gates: int("area_gates")?,
            ok: field("ok")?.as_bool().ok_or_else(|| bad("ok"))?,
            // Absent in records written before the error field existed.
            error: v.get("error").and_then(|e| e.as_str()).map(str::to_string),
            // Absent in records written before the timeline summary rode
            // along; default to zero rather than rejecting the record.
            contexts_loaded: v.get("contexts_loaded").and_then(Json::as_u64).unwrap_or(0),
            reconfig_ns: v.get("reconfig_ns").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }
}

/// Encode a slice of records as a JSON array.
pub fn records_to_json(records: &[RunRecord]) -> Json {
    Json::Arr(records.iter().map(RunRecord::to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcf_kernel::prelude::SimDuration;

    fn metrics() -> RunMetrics {
        RunMetrics {
            makespan: SimDuration::us(3),
            bus_utilization: 0.5,
            bus_words: 100,
            switches: 4,
            config_words: 800,
            reconfig_overhead: 0.1,
            hit_rate: 0.75,
            fabric_energy_mj: 1.5,
            area_gates: 20_000,
            errors: 0,
            ok: true,
            error: None,
            ..RunMetrics::default()
        }
    }

    #[test]
    fn conversion_keeps_fields() {
        let r = RunRecord::from_metrics("test", vec![("freq".into(), "100".into())], &metrics());
        assert_eq!(r.makespan_ns, 3000.0);
        assert_eq!(r.switches, 4);
        assert_eq!(r.param("freq"), Some("100"));
        assert_eq!(r.param("nope"), None);
        assert!(r.ok);
    }

    #[test]
    fn throughput_proxy() {
        let r = RunRecord::from_metrics("t", vec![], &metrics());
        // 3000 ns = 0.003 ms; 6 items -> 2000 items/ms.
        assert!((r.items_per_ms(6) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn failed_record_round_trips_with_error() {
        let r = RunRecord::failed(
            "sweep",
            vec![("point".into(), "3".into())],
            "deadlock: 2 pending obligations",
        );
        assert!(!r.ok);
        let s = r.to_json().to_string();
        let back = RunRecord::from_json(&crate::json::Json::parse(&s).unwrap()).unwrap();
        assert_eq!(
            back.error.as_deref(),
            Some("deadlock: 2 pending obligations")
        );
        assert!(!back.ok);
    }

    #[test]
    fn timeline_summary_rides_on_the_record() {
        use drcf_core::prelude::{ReconfigTimeline, TimelineRow};
        let mut m = metrics();
        m.timeline = ReconfigTimeline {
            rows: vec![TimelineRow {
                name: "fir".into(),
                activations: 2,
                reconfig: SimDuration::ns(400),
                ..TimelineRow::default()
            }],
            total_reconfig: SimDuration::ns(400),
            contexts_loaded: 1,
            ..ReconfigTimeline::default()
        };
        let r = RunRecord::from_metrics("t", vec![], &m);
        assert_eq!(r.contexts_loaded, 1);
        assert_eq!(r.reconfig_ns, 400.0);
        let back = RunRecord::from_json(&Json::parse(&r.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn records_without_timeline_fields_still_parse() {
        // A record serialized before the timeline summary existed.
        let r = RunRecord::from_metrics("old", vec![], &metrics());
        let Json::Obj(mut fields) = r.to_json() else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "contexts_loaded" && k != "reconfig_ns");
        let back = RunRecord::from_json(&Json::Obj(fields)).unwrap();
        assert_eq!(back.contexts_loaded, 0);
        assert_eq!(back.reconfig_ns, 0.0);
        assert_eq!(back.scenario, "old");
    }

    #[test]
    fn serializes_to_json() {
        let r = RunRecord::from_metrics("t", vec![("a".into(), "b".into())], &metrics());
        let s = r.to_json().to_string();
        let back = RunRecord::from_json(&crate::json::Json::parse(&s).unwrap()).unwrap();
        assert_eq!(r, back);
    }
}
