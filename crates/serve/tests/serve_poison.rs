//! Store poisoning: every corruption mode must surface as a typed error at
//! the store layer, and as a transparent cold re-simulation (never a wrong
//! answer) at the serving layer.

use drcf_kernel::prelude::SimErrorKind;
use drcf_serve::prelude::*;
use std::path::PathBuf;

struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("drcf-serve-poison-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch { dir }
    }

    fn store(&self) -> SnapshotStore {
        SnapshotStore::open(&self.dir).expect("open store")
    }

    fn entry(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Seed an entry, corrupt it with `damage`, and check both layers: the
/// store load reports a typed snapshot-chain error, and `process_sweep`
/// still answers bit-identically to the pristine run.
fn poison_case(tag: &str, damage: impl Fn(&Scratch, u64, &StoreMeta)) {
    let scratch = Scratch::new(tag);
    let store = scratch.store();
    let req = SweepRequest::small(4_000, vec![200, 600]);
    let pristine = process_sweep(&store, &req).expect("seed sweep");
    let key = req.key();
    let meta = store.meta(key).expect("meta").expect("entry");
    damage(&scratch, key, &meta);

    // Layer 1: the damaged link is a typed error, not garbage state.
    let mut typed = false;
    for link in &meta.links {
        if let Err(e) = store.load_link(key, link) {
            assert_eq!(e.kind, SimErrorKind::SnapshotChain, "{e}");
            typed = true;
        }
    }
    assert!(typed, "damage must be detectable on load ({tag})");

    // Layer 2: serving wipes the entry and re-simulates; the answer is
    // bit-identical to the pristine one. Remove the record log too so the
    // repair actually exercises the cold path end to end.
    let _ = std::fs::remove_file(
        scratch
            .entry(key)
            .join(format!("records-{}.jsonl", req.fork_ns)),
    );
    let repaired = process_sweep(&store, &req).expect("repair sweep");
    assert_eq!(repaired.simulated, 2, "repair re-simulates ({tag})");
    assert_eq!(repaired.records, pristine.records, "never a wrong answer");
}

#[test]
fn truncated_link_is_typed_and_recovered() {
    poison_case("truncate", |scratch, key, meta| {
        let path = scratch.entry(key).join(&meta.links[0].file);
        let text = std::fs::read_to_string(&path).expect("read link");
        std::fs::write(&path, &text[..text.len() / 2]).expect("truncate link");
    });
}

#[test]
fn bit_flipped_link_is_typed_and_recovered() {
    poison_case("bitflip", |scratch, key, meta| {
        let path = scratch.entry(key).join(&meta.links[0].file);
        let mut bytes = std::fs::read(&path).expect("read link");
        // Flip one digit inside the document body (past the schema header),
        // keeping it parseable so only the hash check can catch it.
        let pos = bytes
            .iter()
            .rposition(|b| b.is_ascii_digit())
            .expect("a digit to flip");
        bytes[pos] = if bytes[pos] == b'9' { b'8' } else { b'9' };
        std::fs::write(&path, bytes).expect("write flipped link");
    });
}

#[test]
fn wrong_parent_chain_is_typed_and_recovered() {
    // Build a two-link chain (full @2us, delta @4us), then re-parent the
    // delta by swapping in a different fork's delta document.
    let scratch = Scratch::new("wrong-parent");
    let store = scratch.store();
    let early = SweepRequest::small(2_000, vec![200, 600]);
    let late = SweepRequest::small(4_000, vec![200, 600]);
    process_sweep(&store, &early).expect("seed early fork");
    let pristine = process_sweep(&store, &late).expect("seed late fork");
    let key = late.key();
    let meta = store.meta(key).expect("meta").expect("entry");
    assert_eq!(meta.links.len(), 2);
    assert!(!meta.links[1].full, "second link is a delta");

    // Re-parent: make the chain claim the delta applies where it does not,
    // by duplicating the delta entry so it would be applied twice.
    let mut broken = meta.clone();
    let mut dup = meta.links[1].clone();
    dup.time_ns += 1_000;
    let dup_time = dup.time_ns;
    broken.links.push(dup);
    store.write_meta(key, &broken).expect("write broken meta");

    // Serving a fork past the duplicated link walks the broken chain: the
    // second apply's parent-hash check fails, the entry is wiped, and the
    // answer is re-simulated cold.
    let req = SweepRequest::small(dup_time, vec![200, 600]);
    let healed = process_sweep(&store, &req).expect("repair sweep");
    assert_eq!(healed.simulated, 2);
    let fresh = Scratch::new("wrong-parent-fresh");
    let expect = process_sweep(&fresh.store(), &req).expect("reference sweep");
    assert_eq!(healed.records, expect.records, "never a wrong answer");

    // The wiped entry was rebuilt from scratch: a single full link now.
    let meta_after = store.meta(key).expect("meta").expect("entry");
    assert_eq!(meta_after.links.len(), 1, "{:?}", meta_after.links);
    assert!(meta_after.links[0].full);

    // And the late fork still serves correctly after the repair.
    let late_again = process_sweep(&store, &late).expect("late after repair");
    assert_eq!(late_again.records, pristine.records);
}

#[test]
fn garbage_meta_is_typed_and_recovered() {
    let scratch = Scratch::new("garbage-meta");
    let store = scratch.store();
    let req = SweepRequest::small(4_000, vec![300]);
    let pristine = process_sweep(&store, &req).expect("seed sweep");
    let key = req.key();
    std::fs::write(scratch.entry(key).join("meta.json"), "not json at all").expect("poison meta");

    let e = store.meta(key).expect_err("garbage meta must be typed");
    assert_eq!(e.kind, SimErrorKind::SnapshotChain, "{e}");

    let _ = std::fs::remove_file(
        scratch
            .entry(key)
            .join(format!("records-{}.jsonl", req.fork_ns)),
    );
    let healed = process_sweep(&store, &req).expect("repair sweep");
    assert_eq!(healed.records, pristine.records);
}

#[test]
fn wrong_schema_meta_is_typed() {
    let scratch = Scratch::new("wrong-schema");
    let store = scratch.store();
    let req = SweepRequest::small(4_000, vec![300]);
    process_sweep(&store, &req).expect("seed sweep");
    let key = req.key();
    std::fs::write(
        scratch.entry(key).join("meta.json"),
        "{\"schema\":\"drcf-store-v999\",\"links\":[]}",
    )
    .expect("poison meta");
    let e = store.meta(key).expect_err("wrong schema must be typed");
    assert_eq!(e.kind, SimErrorKind::SnapshotChain, "{e}");
}

#[test]
fn v1_store_entry_is_wiped_and_resimulated() {
    // An entry written by the previous store format: its meta and every
    // link carry the v1 schema tags. Nothing reads v1, so the entry is a
    // typed error, and serving re-simulates it from scratch.
    let scratch = Scratch::new("store-v1");
    let store = scratch.store();
    let req = SweepRequest::small(4_000, vec![200, 600]);
    process_sweep(&store, &req).expect("seed sweep");
    let key = req.key();
    let meta = store.meta(key).expect("meta").expect("entry");
    let entry = scratch.entry(key);
    let downgrade = |file: &str, from: &str, to: &str| {
        let path = entry.join(file);
        let text = std::fs::read_to_string(&path).expect("read entry file");
        assert!(text.contains(from), "{file} names {from}");
        std::fs::write(&path, text.replace(from, to)).expect("write v1 file");
    };
    downgrade(
        "meta.json",
        drcf_serve::store::STORE_SCHEMA,
        "drcf-store-v1",
    );
    for link in &meta.links {
        let (from, to) = if link.full {
            (drcf_kernel::snapshot::SNAPSHOT_SCHEMA, "drcf-snapshot-v1")
        } else {
            (
                drcf_kernel::snapshot::DELTA_SCHEMA,
                "drcf-snapshot-delta-v1",
            )
        };
        downgrade(&link.file, from, to);
    }
    let e = store.meta(key).expect_err("a v1 entry is refused");
    assert_eq!(e.kind, SimErrorKind::SnapshotChain, "{e}");

    let _ = std::fs::remove_file(entry.join(format!("records-{}.jsonl", req.fork_ns)));
    let served = process_sweep(&store, &req).expect("repair sweep");
    assert_eq!(served.simulated, 2, "the v1 entry is re-simulated");
    let fresh = Scratch::new("store-v1-fresh");
    let expect = process_sweep(&fresh.store(), &req).expect("reference sweep");
    assert_eq!(
        served.records, expect.records,
        "the answer a fresh store gives"
    );
    let healed = store.meta(key).expect("meta").expect("entry rewritten");
    assert!(!healed.links.is_empty());
}

#[test]
fn flipped_delta_body_is_recovered() {
    // A full link @2us and a delta @4us. A digit flipped in the delta's
    // body leaves its declared parent and child hashes intact, so the link
    // loads cleanly and only the chain restore's tip check can catch it.
    let scratch = Scratch::new("delta-body");
    let store = scratch.store();
    let early = SweepRequest::small(2_000, vec![200, 600]);
    let req = SweepRequest::small(4_000, vec![200, 600]);
    process_sweep(&store, &early).expect("seed early fork");
    process_sweep(&store, &req).expect("seed late fork");
    let key = req.key();
    let meta = store.meta(key).expect("meta").expect("entry");
    assert!(!meta.links[1].full, "second link is a delta");

    // Flip the last digit of the first pending event's time.
    let path = scratch.entry(key).join(&meta.links[1].file);
    let mut text = std::fs::read_to_string(&path).expect("read delta link");
    let queue = text.find("\"queue\"").expect("a queue");
    let t = queue + text[queue..].find("\"t\": ").expect("a pending event") + 5;
    let end = t + text[t..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("the time ends");
    let flipped = if &text[end - 1..end] == "9" { "8" } else { "9" };
    text.replace_range(end - 1..end, flipped);
    std::fs::write(&path, text).expect("write flipped link");
    store
        .load_link(key, &meta.links[1])
        .expect("the header is intact, so the link loads");

    let _ = std::fs::remove_file(
        scratch
            .entry(key)
            .join(format!("records-{}.jsonl", req.fork_ns)),
    );
    let served = process_sweep(&store, &req).expect("repair sweep");
    assert_eq!(served.simulated, 2, "the damaged entry is re-simulated");
    let fresh = Scratch::new("delta-body-fresh");
    let expect = process_sweep(&fresh.store(), &req).expect("reference sweep");
    assert_eq!(served.records, expect.records, "never a wrong answer");
}

#[test]
fn flipped_record_digit_is_resimulated() {
    // Every 7th digit of the record log is bumped in turn, with the log
    // kept. Each flipped line fails its checksum, so its point is
    // re-simulated, and the answer never changes.
    let scratch = Scratch::new("record-flip");
    let store = scratch.store();
    let req = SweepRequest::small(4_000, vec![200, 600]);
    let pristine = process_sweep(&store, &req).expect("seed sweep");
    let key = req.key();
    let path = scratch
        .entry(key)
        .join(format!("records-{}.jsonl", req.fork_ns));
    let log = std::fs::read(&path).expect("read record log");
    let digits: Vec<usize> = (0..log.len())
        .filter(|&i| log[i].is_ascii_digit())
        .step_by(7)
        .collect();
    assert!(digits.len() >= 30, "{} flips", digits.len());
    for i in digits {
        let mut flipped = log.clone();
        flipped[i] = b'0' + (flipped[i] - b'0' + 1) % 10;
        std::fs::write(&path, &flipped).expect("write flipped log");
        let (_, skipped) = store.records(key, req.fork_ns).expect("records");
        assert_eq!(skipped, 1, "flip at byte {i}");
        let served = process_sweep(&store, &req).expect("re-serve");
        assert_eq!(served.simulated, 1, "flip at byte {i}");
        assert_eq!(served.records, pristine.records, "flip at byte {i}");
    }
}
