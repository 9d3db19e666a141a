//! Store-backed sweep serving: cache hits, chain extension, resume merges.

use drcf_serve::prelude::*;
use drcf_serve::store::REBASE_PERIOD;
use std::path::PathBuf;

/// Fresh scratch store for one test; removed on drop.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("drcf-serve-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch { dir }
    }

    fn store(&self) -> SnapshotStore {
        SnapshotStore::open(&self.dir).expect("open store")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn repeated_sweep_is_fully_cached_and_bit_identical() {
    let scratch = Scratch::new("repeat");
    let store = scratch.store();
    let req = SweepRequest::small(4_000, vec![150, 300, 600]);

    let cold = process_sweep(&store, &req).expect("cold sweep");
    assert_eq!(cold.simulated, 3);
    assert_eq!(cold.from_cache, 0);
    assert!(cold.records.iter().all(|r| r.ok), "{:?}", cold.records);

    let warm = process_sweep(&store, &req).expect("warm sweep");
    assert_eq!(warm.simulated, 0, "everything must come from the store");
    assert_eq!(warm.from_cache, 3);
    assert_eq!(warm.records, cold.records, "cache must be bit-identical");
    assert_eq!(warm.key, cold.key);

    // The clock knob must actually matter, or the sweep proves nothing.
    assert!(cold.records[0].makespan_ns > cold.records[2].makespan_ns);
}

#[test]
fn partial_overlap_simulates_only_the_new_points() {
    let scratch = Scratch::new("overlap");
    let store = scratch.store();
    let first = SweepRequest::small(4_000, vec![200, 400]);
    let a = process_sweep(&store, &first).expect("first sweep");
    assert_eq!(a.simulated, 2);

    let wider = SweepRequest::small(4_000, vec![200, 400, 800, 1_000]);
    let b = process_sweep(&store, &wider).expect("wider sweep");
    assert_eq!(b.from_cache, 2, "shared points answered from the store");
    assert_eq!(b.simulated, 2, "only the new points simulated");
    assert_eq!(&b.records[..2], &a.records[..]);

    // A fresh store must agree exactly: resume merging changes nothing.
    let fresh = Scratch::new("overlap-fresh");
    let c = process_sweep(&fresh.store(), &wider).expect("uninterrupted sweep");
    assert_eq!(
        c.records, b.records,
        "merged answer == uninterrupted answer"
    );
}

#[test]
fn later_forks_extend_the_chain_with_deltas_and_rebase() {
    let scratch = Scratch::new("chain");
    let store = scratch.store();
    let key = SweepRequest::small(2_000, vec![300]).key();

    // Walk the fork forward; each step should append one link.
    let forks: Vec<u64> = (1..=REBASE_PERIOD as u64 + 2).map(|i| i * 2_000).collect();
    let mut replies = Vec::new();
    for &f in &forks {
        replies.push(process_sweep(&store, &SweepRequest::small(f, vec![300])).expect("sweep"));
    }
    let meta = store
        .meta(key)
        .expect("meta readable")
        .expect("entry exists");
    assert_eq!(meta.links.len(), forks.len());
    assert!(meta.links[0].full, "chain enters at a full snapshot");
    assert!(!meta.links[1].full, "extensions ride as deltas");
    assert!(
        meta.links.iter().skip(1).any(|l| l.full),
        "a long chain must rebase with a full link: {:?}",
        meta.links
    );
    let times: Vec<u64> = meta.links.iter().map(|l| l.time_ns).collect();
    assert_eq!(times, forks, "links land on the requested fork times");

    // Re-serving an early fork reuses the stored prefix (no new links).
    let again =
        process_sweep(&store, &SweepRequest::small(forks[1], vec![300])).expect("early fork");
    assert_eq!(again.from_cache, 1);
    let meta2 = store.meta(key).expect("meta readable").expect("entry");
    assert_eq!(meta2.links.len(), forks.len(), "no new links for old forks");
}

#[test]
fn records_survive_a_torn_trailing_line() {
    let scratch = Scratch::new("torn");
    let store = scratch.store();
    let req = SweepRequest::small(4_000, vec![250, 500]);
    let a = process_sweep(&store, &req).expect("cold sweep");

    // Simulate a writer killed mid-append: chop the log mid-line.
    let entry = scratch.dir.join(format!("{:016x}", req.key()));
    let log = entry.join(format!("records-{}.jsonl", req.fork_ns));
    let text = std::fs::read_to_string(&log).expect("read log");
    let keep = text.lines().next().expect("at least one line").to_string();
    std::fs::write(&log, format!("{keep}\n{{\"point\":5,\"rec")).expect("tear log");

    let (recovered, torn) = store.records(req.key(), req.fork_ns).expect("recover");
    assert_eq!(torn, 1, "the torn line is counted, not fatal");
    assert_eq!(recovered.len(), 1);

    // Serving again re-simulates exactly the lost point and re-converges.
    let b = process_sweep(&store, &req).expect("resume sweep");
    assert_eq!(b.from_cache, 1);
    assert_eq!(b.simulated, 1);
    assert_eq!(b.records, a.records);
}

#[test]
fn manifest_inventories_entries() {
    let scratch = Scratch::new("manifest");
    let store = scratch.store();
    let req = SweepRequest::small(4_000, vec![300]);
    process_sweep(&store, &req).expect("sweep");
    let path = store.write_manifest().expect("write manifest");
    let text = std::fs::read_to_string(path).expect("read manifest");
    let j = drcf_kernel::json::Json::parse(&text).expect("manifest parses");
    let entries = j.get("entries").and_then(|e| e.as_arr()).expect("entries");
    assert_eq!(entries.len(), 1);
    assert_eq!(
        entries[0].get("links").and_then(|l| l.as_u64()),
        Some(1),
        "{text}"
    );
}

/// The record log of a sweep lists its points in request order, whatever
/// order the workers finished them in, so two stores fed the same request
/// hold byte-identical logs.
#[test]
fn record_log_follows_point_order() {
    let req = SweepRequest::small(4_000, vec![600, 150, 450, 300, 750, 200]);
    let logs: Vec<String> = ["order-a", "order-b"]
        .into_iter()
        .map(|tag| {
            let scratch = Scratch::new(tag);
            let reply = process_sweep(&scratch.store(), &req).expect("sweep");
            assert_eq!(reply.simulated, req.points.len());
            let log = scratch
                .dir
                .join(format!("{:016x}", req.key()))
                .join(format!("records-{}.jsonl", req.fork_ns));
            std::fs::read_to_string(log).expect("record log")
        })
        .collect();
    assert_eq!(logs[0], logs[1], "the two stores' record logs");
    let points: Vec<u64> = logs[0]
        .lines()
        .map(|l| {
            let rest = l.strip_prefix("{\"point\":").expect("a record line");
            let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
            digits.and_then(|d| d.parse().ok()).expect("a point")
        })
        .collect();
    assert_eq!(points, req.points);
}
