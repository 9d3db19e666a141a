//! Cross-crate integration: sharded tracing end to end.
//!
//! A multi-LP run with every LP's recorder enabled must merge into ONE
//! Chrome trace-event document that (a) round-trips through the
//! workspace JSON parser, (b) carries one process track per LP plus the
//! synthesized `round` spans on each kernel track, (c) keeps begin/end
//! span pairs balanced per track, and (d) is *identical at every shard
//! count* — the merge only uses simulated-time data, so the document is
//! part of the deterministic outcome, not of the execution mode.

use std::sync::Arc;

use drcf::prelude::*;

/// A four-tile ring run to 50 us at `shards` shards, with every LP's
/// recorder on when `trace` is set.
fn ring_run(shards: usize, trace: bool) -> PartitionedRun {
    let graph = Arc::new(
        FabricRing {
            tiles: 4,
            ..FabricRing::default()
        }
        .graph(),
    );
    let cfg = ShardConfig::to(SimTime::ZERO + SimDuration::us(50))
        .shards(shards)
        .hash_slices(true);
    let cfg = if trace { cfg.trace(1 << 14) } else { cfg };
    run_partitioned(&graph, &cfg).expect("sharded run")
}

fn merged_doc(shards: usize) -> (PartitionedRun, Json) {
    let run = ring_run(shards, true);
    let doc = chrome_trace_sharded(&run.report).expect("merge traced run");
    (run, doc)
}

#[test]
fn merged_document_is_shard_count_invariant() {
    let (r1, d1) = merged_doc(1);
    let (r2, d2) = merged_doc(2);
    let (r4, d4) = merged_doc(4);
    assert!(r1.report.same_outcome(&r2.report));
    assert!(r1.report.same_outcome(&r4.report));
    // The merge draws only on simulated-time data (harvested events,
    // round/horizon bounds, envelope counts) — never on wall clocks — so
    // the whole document, not just an event multiset, must be identical
    // whether the LPs ran inline or on 2 or 4 worker threads.
    let (t1, t2, t4) = (d1.to_string(), d2.to_string(), d4.to_string());
    assert_eq!(t1, t2, "merged trace differs between 1 and 2 shards");
    assert_eq!(t1, t4, "merged trace differs between 1 and 4 shards");
}

#[test]
fn merged_document_has_one_process_track_per_lp_with_balanced_spans() {
    let (run, doc) = merged_doc(2);
    let text = doc.to_string_pretty();
    let back = Json::parse(&text).expect("merged trace must parse");
    let events = back
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // One process_name metadata record per LP, carrying the tile names.
    let processes: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert_eq!(processes.len(), run.report.lps.len());
    for i in 0..run.report.lps.len() {
        let tile = format!("tile{i}");
        assert!(processes.contains(&tile.as_str()), "missing {tile}");
    }

    // Per (pid, tid): every E closes a B and the run ends closed — the
    // synthesized round spans land on the kernel track, where the
    // recorder emits no B/E of its own, so balance must hold everywhere.
    let key_of = |e: &Json| {
        let pid = e.get("pid").and_then(Json::as_f64)? as i64;
        let tid = e.get("tid").and_then(Json::as_f64)? as i64;
        Some((pid, tid))
    };
    let mut keys: Vec<(i64, i64)> = events.iter().filter_map(key_of).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut round_spans = 0usize;
    for key in keys {
        let mut depth = 0i64;
        for e in events.iter().filter(|e| key_of(e) == Some(key)) {
            match e.get("ph").and_then(Json::as_str) {
                Some("B") => {
                    depth += 1;
                    if e.get("name").and_then(Json::as_str) == Some("round") {
                        round_spans += 1;
                    }
                }
                Some("E") => {
                    depth -= 1;
                    assert!(depth >= 0, "E without matching B on {key:?}");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unclosed spans on {key:?}");
    }
    // Every LP closes every window, so the merged document carries at
    // least one round span per LP per synchronization round.
    assert!(
        round_spans as u64 >= run.report.rounds * run.report.lps.len() as u64,
        "only {round_spans} round spans for {} rounds x {} LPs",
        run.report.rounds,
        run.report.lps.len()
    );
    // Round spans carry the horizon-bound attribution for Perfetto.
    let bound = events
        .iter()
        .find(|e| {
            e.get("name").and_then(Json::as_str) == Some("round")
                && e.get("ph").and_then(Json::as_str) == Some("B")
        })
        .and_then(|e| e.get("args")?.get("bound")?.as_str())
        .expect("round spans carry a bound arg");
    assert!(
        bound == "end" || bound == "window" || bound.starts_with("link:"),
        "unexpected bound {bound:?}"
    );
}

#[test]
fn jsonl_merge_tags_every_line_with_its_lp() {
    let (run, _) = merged_doc(2);
    let text = jsonl_sharded(&run.report).expect("jsonl merge");
    let mut event_lines = 0u64;
    let mut round_lines = 0u64;
    for line in text.lines() {
        let v = Json::parse(line).expect("each JSONL line parses");
        assert!(v.get("lp").is_some(), "line without lp tag: {line}");
        if v.get("kind").and_then(Json::as_str) == Some("round") {
            round_lines += 1;
        } else {
            event_lines += 1;
        }
    }
    let harvested: u64 = run
        .report
        .lps
        .iter()
        .map(|l| l.trace_events.len() as u64)
        .sum();
    assert_eq!(event_lines, harvested);
    assert_eq!(
        round_lines,
        run.report
            .profile
            .lps
            .iter()
            .map(|l| l.windows.len() as u64)
            .sum::<u64>()
    );
}

#[test]
fn merging_an_untraced_run_is_a_loud_typed_error() {
    let run = ring_run(2, false);
    let err = chrome_trace_sharded(&run.report).expect_err("must refuse");
    assert_eq!(err.kind, SimErrorKind::Validation);
    assert!(err.message.contains("tracing is off"), "{}", err.message);
    assert!(
        jsonl_sharded(&run.report).is_err(),
        "jsonl merge must refuse too"
    );
}
