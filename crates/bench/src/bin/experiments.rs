//! Regenerate every experiment table and print it.
//!
//! `cargo run --release -p drcf-bench --bin experiments [--markdown] [ids...]`
//!
//! `--bench-json` instead runs the kernel hot-path throughput suite and
//! writes `BENCH_kernel.json` to the current directory (printing it too),
//! the document that tracks the repo's perf trajectory.
//!
//! `--trace-out <path>` instead runs a small traced wireless-receiver
//! scenario and writes a Perfetto-loadable Chrome trace-event file there,
//! validating that the written JSON parses before exiting.
//!
//! `--snapshot-out <path> [--at-ns N] [--deltas K]` runs the canonical
//! wireless-receiver DRCF scenario up to `N` ns (default: half its
//! makespan) and writes the deterministic `drcf-snapshot-v2` document
//! there. With `--deltas K` it then continues the same timeline in `K`
//! equal steps toward the makespan, writing one incremental
//! `drcf-snapshot-delta-v2` document per step as `<path>.d1 … <path>.dK`,
//! each chained to its predecessor by parent hash. `--resume-from <path>` restores the
//! snapshot into a freshly built system, applies any `<path>.dN` chain in
//! order (a parent-hash mismatch is reported as a typed `snapshot-chain`
//! error, exit code 2), runs to completion, and cross-checks the resumed
//! metrics and final state hash against a straight run before printing
//! them. A document that does not parse (another schema version included)
//! or a resumed run that diverges is a typed `error[...]` line, exit
//! code 2.
//!
//! `--shards N` runs the multi-fabric `sharded_soc` bench ring with N
//! worker shards against the single-threaded oracle, verifies the reports
//! are bit-identical, and prints both wall times, the live speedup, and
//! the critical-link and parallel-efficiency reports from the run profile.
//!
//! `--shards N --trace-out <path>` composes the two: it runs the E12
//! hierarchical graph with every LP's event recorder enabled, merges all
//! LPs into one Perfetto-loadable Chrome trace document at `path` (one
//! process track per LP plus synthesized `round` spans on each kernel
//! track), and self-validates the written file before exiting.

/// Event dispatch allocates roughly 1.3 small blocks per event (boxed
/// message payloads plus burst-data vectors); the pooled allocator turns
/// those into thread-local free-list hits. Benchmarks therefore measure
/// the allocator the workspace recommends for simulation binaries.
#[global_allocator]
static ALLOC: drcf_kernel::mempool::PoolAlloc = drcf_kernel::mempool::PoolAlloc;

fn write_trace(path: &str) {
    use drcf_dse::prelude::Json;
    use drcf_soc::prelude::*;

    let w = wireless_receiver(2, 32);
    let names: Vec<String> = w.accels.iter().map(|a| a.name.clone()).collect();
    let spec = SocSpec {
        mapping: Mapping::Drcf {
            candidates: names.clone(),
            technology: drcf_core::prelude::morphosys(),
            geometry: drcf_dse::prelude::size_fabric(&w, &names, 1.2, 1),
            config_path: SocConfigPath::SystemBus,
            scheduler: drcf_core::prelude::SchedulerConfig::default(),
            overlap_load_exec: false,
        },
        trace_capacity: Some(1 << 18),
        ..SocSpec::default()
    };
    let (m, soc) = run_soc(build_soc(&w, &spec).expect("build traced scenario"));
    assert!(m.ok, "traced scenario failed: {:?}", m.error);
    drcf_dse::prelude::write_chrome_trace(&soc.sim, std::path::Path::new(path))
        .expect("write trace file");
    // Self-check: the file we just wrote must parse and contain events.
    let text = std::fs::read_to_string(path).expect("read trace back");
    let doc = Json::parse(&text).expect("trace JSON must parse");
    let n = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .map(<[Json]>::len)
        .expect("traceEvents array");
    assert!(n > 0, "trace is empty");
    eprintln!("wrote {path} ({n} trace events, JSON validated)");
}

/// The fixed scenario the snapshot flags operate on: both `--snapshot-out`
/// and `--resume-from` must describe the identical system or restore will
/// reject the document.
fn snapshot_scenario() -> (drcf_soc::prelude::Workload, drcf_soc::prelude::SocSpec) {
    use drcf_soc::prelude::*;
    let w = wireless_receiver(2, 32);
    let names: Vec<String> = w.accels.iter().map(|a| a.name.clone()).collect();
    let spec = SocSpec {
        mapping: Mapping::Drcf {
            candidates: names.clone(),
            technology: drcf_core::prelude::morphosys(),
            geometry: drcf_dse::prelude::size_fabric(&w, &names, 1.2, 1),
            config_path: SocConfigPath::SystemBus,
            scheduler: drcf_core::prelude::SchedulerConfig::default(),
            overlap_load_exec: false,
        },
        ..SocSpec::default()
    };
    (w, spec)
}

fn write_snapshot(path: &str, at_ns: Option<u64>, deltas: usize) {
    use drcf_kernel::prelude::{SimDuration, SimTime, SnapshotChain};
    use drcf_soc::prelude::*;
    let (w, spec) = snapshot_scenario();
    let (m, _) = run_soc(build_soc(&w, &spec).expect("build snapshot scenario"));
    assert!(m.ok, "snapshot scenario failed: {:?}", m.error);
    let makespan = m.makespan;
    let at = match at_ns {
        Some(n) => SimDuration::ns(n),
        None => SimDuration::fs(makespan.as_fs() / 2),
    };
    let snap = snapshot_prefix(&w, &spec, at).expect("capture snapshot");
    let text = snap.to_text();
    std::fs::write(path, &text).expect("write snapshot file");
    eprintln!(
        "wrote {path} ({} bytes, snapshot at {} ns)",
        text.len(),
        at.as_fs() / 1_000_000
    );
    if deltas == 0 {
        return;
    }
    // Continue the same timeline in `deltas` equal steps toward the
    // makespan, writing one incremental document per step: `path.d1` is
    // chained to the full snapshot, `path.dK` to `path.d(K-1)`.
    let mut soc = restore_soc(&w, &spec, &snap).expect("restore for delta chain");
    let mut chain = SnapshotChain::new(snap, deltas);
    let span = makespan.as_fs().saturating_sub(at.as_fs());
    for k in 1..=deltas {
        let t = at.as_fs() + span * k as u64 / deltas as u64;
        soc.sim
            .run_until(SimTime::ZERO + SimDuration::fs(t))
            .expect("advance to delta point");
        let parent = chain.tip_hash();
        let (doc, _) = chain.checkpoint(&mut soc.sim).expect("capture delta");
        let dp = format!("{path}.d{k}");
        let dtext = doc.to_text();
        std::fs::write(&dp, &dtext).expect("write delta file");
        eprintln!(
            "wrote {dp} ({} bytes, delta at {} ns, parent {parent:016x} -> child {:016x})",
            dtext.len(),
            t / 1_000_000,
            doc.tip_hash()
        );
    }
}

fn resume_snapshot(path: &str) {
    use drcf_kernel::prelude::{
        ChainDoc, SimError, SimErrorKind, Snapshot, SnapshotChain, SnapshotDelta,
    };
    use drcf_soc::prelude::*;
    let fail = |what: &str, e: SimError| -> ! {
        eprintln!("error[{}]: {what}: {e}", e.kind.label());
        std::process::exit(2);
    };
    let (w, spec) = snapshot_scenario();
    let text = std::fs::read_to_string(path).expect("read snapshot file");
    let snap = Snapshot::parse(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}"), e));
    // Chain any delta documents sitting next to the snapshot (`path.d1`,
    // `path.d2`, ...) in order; the rebase period only governs capture. A
    // delta that does not chain onto the previous link, or a chain that
    // does not restore to its declared tip, is a typed `snapshot-chain`
    // error, reported as such instead of a panic.
    let mut chain = SnapshotChain::new(snap, 0);
    let mut k = 1usize;
    loop {
        let dp = format!("{path}.d{k}");
        let Ok(dtext) = std::fs::read_to_string(&dp) else {
            break;
        };
        let delta =
            SnapshotDelta::parse(&dtext).unwrap_or_else(|e| fail(&format!("cannot parse {dp}"), e));
        let (parent, child) = (delta.parent_hash(), delta.child_hash());
        if let Err(e) = chain.push(ChainDoc::Delta(delta)) {
            fail(&format!("cannot chain {dp}"), e);
        }
        eprintln!("chained {dp} (parent {parent:016x} -> child {child:016x})");
        k += 1;
    }
    let applied = k - 1;
    let mut soc = match restore_soc_chain(&w, &spec, &chain) {
        Ok((soc, _)) => soc,
        Err(e) => fail(&format!("cannot restore the chain from {path}"), e),
    };
    // The resumed run must land exactly where a straight run does: the
    // same metrics and the same final state. A lone full snapshot carries
    // no hash to check it against, so this comparison is what catches a
    // document edited after it was written.
    let m = run_soc_mut(&mut soc);
    let (straight, mut straight_soc) = run_soc(build_soc(&w, &spec).expect("build straight run"));
    let diverged = |what: String| -> ! {
        fail(
            &format!("resuming from {path}"),
            SimError::new(
                SimErrorKind::Validation,
                format!("the resumed run diverged from the straight run: {what}"),
            ),
        )
    };
    if m != straight {
        diverged(format!("metrics {m:?} vs {straight:?}"));
    }
    let hash = |soc: &mut BuiltSoc, which: &str| {
        soc.sim
            .state_hash()
            .unwrap_or_else(|e| fail(&format!("hashing the {which} run's final state"), e))
    };
    let (resumed_hash, straight_hash) = (
        hash(&mut soc, "resumed"),
        hash(&mut straight_soc, "straight"),
    );
    if resumed_hash != straight_hash {
        diverged(format!(
            "final state hash {resumed_hash:016x} vs {straight_hash:016x}"
        ));
    }
    println!(
        "resumed from {path} (+{applied} delta{}): makespan {} ns, {} bus words, {} context \
         switches (metrics and final state hash {resumed_hash:016x} verified bit-identical to \
         a straight run)",
        if applied == 1 { "" } else { "s" },
        m.makespan.as_fs() / 1_000_000,
        m.bus_words,
        m.switches
    );
}

/// Assert bit-identity between an oracle and a sharded run, printing the
/// resolved divergence detail (time, link, seq, both hashes) when the
/// window protocol went wrong instead of a bare slice index.
fn assert_identical(
    oracle: &drcf_kernel::prelude::ShardRunReport,
    par: &drcf_kernel::prelude::ShardRunReport,
    what: &str,
) {
    if let Some(d) = drcf_bench::hotpath::divergence(oracle, par, what) {
        eprintln!("{d}");
        panic!("{what} diverged from the oracle");
    }
}

/// Run the E12 graph with per-LP tracing at `shards` shards, verify
/// bit-identity against the traced oracle, merge every LP into one
/// Chrome trace document at `path`, and self-validate the written file.
fn run_sharded_traced(shards: usize, path: &str) {
    use drcf_bench::e12_hierarchy::run_sharded_e12_with;
    use drcf_bench::hotpath::{sharded_e12_graph, SHARDED_E12_HORIZON};
    use drcf_dse::prelude::Json;
    use drcf_kernel::prelude::{ShardConfig, SimDuration, SimTime};

    let graph = sharded_e12_graph();
    // A window cap well above the bridges' 10 us lookahead makes the cut
    // links the strictly-binding horizon term, so the critical-link
    // report attributes stalls to a named bridge rather than to the cap.
    let cfg = ShardConfig::to(SimTime::ZERO + SHARDED_E12_HORIZON)
        .hash_slices(true)
        .window(SimDuration::us(100))
        .trace(1 << 16);
    let oracle = run_sharded_e12_with(&graph, &cfg.clone().shards(1));
    let par = run_sharded_e12_with(&graph, &cfg.clone().shards(shards));
    assert_identical(&oracle.report, &par.report, "traced sharded E12 run");
    drcf_dse::prelude::write_chrome_trace_sharded(&par.report, std::path::Path::new(path))
        .expect("write merged sharded trace");
    // Self-check: the merged document must parse, carry one process track
    // per LP, and contain the synthesized round/horizon spans.
    let text = std::fs::read_to_string(path).expect("read merged trace back");
    let doc = Json::parse(&text).expect("merged trace JSON must parse");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let processes = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .count();
    assert_eq!(
        processes,
        par.report.lps.len(),
        "merged trace must carry one process track per LP"
    );
    let rounds = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(Json::as_str) == Some("round")
                && e.get("ph").and_then(Json::as_str) == Some("B")
        })
        .count();
    assert!(rounds > 0, "merged trace has no round spans");
    println!(
        "sharded_e12 traced: {} LPs over {} shards, {} events merged into {path} \
         ({} trace events, {processes} process tracks, {rounds} round spans, JSON validated)",
        par.report.lps.len(),
        par.report.shards,
        par.events(),
        events.len(),
    );
    print!("{}", par.critical_links().render());
    print!("{}", par.efficiency().render());
}

fn run_sharded(shards: usize) {
    use drcf_bench::hotpath::{sharded_config, sharded_soc_ring, SHARDED_SOC_HORIZON};
    use drcf_soc::prelude::run_partitioned;
    use std::time::Instant;
    let ring = sharded_soc_ring();
    let graph = std::sync::Arc::new(ring.graph());
    let t0 = Instant::now();
    let oracle =
        run_partitioned(&graph, &sharded_config(SHARDED_SOC_HORIZON, 1)).expect("oracle run");
    let serial = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let par =
        run_partitioned(&graph, &sharded_config(SHARDED_SOC_HORIZON, shards)).expect("sharded run");
    let wall = t1.elapsed().as_secs_f64();
    assert_identical(&oracle.report, &par.report, "sharded_soc run");
    println!(
        "sharded_soc: {} tiles, horizon {} ns, {} events",
        ring.tiles,
        SHARDED_SOC_HORIZON.as_fs() / 1_000_000,
        par.events(),
    );
    println!(
        "  serial (1 shard):  {serial:.3}s\n  sharded ({} shards, {} rounds, {} cross-shard \
         messages): {wall:.3}s\n  speedup {:.2}x — reports bit-identical (per-LP metrics, \
         probes, {} state-hash slices per tile)",
        par.report.shards,
        par.report.rounds,
        par.report.messages,
        serial / wall,
        par.report.lps.first().map_or(0, |l| l.slice_hashes.len()),
    );
    print!("{}", par.report.profile.efficiency().render());

    // The same exercise for the automatically partitioned E12 hierarchical
    // topology: an arbitrary SocGraph cut at its bus bridges.
    use drcf_bench::e12_hierarchy::{e12_switches, run_sharded_e12};
    use drcf_bench::hotpath::{sharded_e12_graph, SHARDED_E12_HORIZON};
    let graph = sharded_e12_graph();
    let t2 = Instant::now();
    let oracle = run_sharded_e12(&graph, 1, SHARDED_E12_HORIZON);
    let serial = t2.elapsed().as_secs_f64();
    let t3 = Instant::now();
    let par = run_sharded_e12(&graph, shards, SHARDED_E12_HORIZON);
    let wall = t3.elapsed().as_secs_f64();
    assert_identical(&oracle.report, &par.report, "sharded E12 run");
    println!(
        "sharded_e12: {} LPs ({} bridges cut), horizon {} ns, {} events, {} context switches",
        par.plan.lp_count(),
        par.plan.cut.len(),
        SHARDED_E12_HORIZON.as_fs() / 1_000_000,
        par.events(),
        e12_switches(&par),
    );
    println!(
        "  serial (1 shard):  {serial:.3}s\n  sharded ({} shards, {} rounds, {} cross-shard \
         messages): {wall:.3}s\n  speedup {:.2}x — reports bit-identical",
        par.report.shards,
        par.report.rounds,
        par.report.messages,
        serial / wall,
    );
    print!("{}", par.critical_links().render());
    print!("{}", par.efficiency().render());
}

/// Run the simulation service: bind a loopback socket, publish its address
/// at `<root>/serve.addr`, and answer sweep requests from the
/// content-addressed snapshot store until a client sends `shutdown`.
fn serve_store(root: &str, workers: usize) {
    use drcf_serve::prelude::*;
    match SweepServer::start(root, workers) {
        Ok(server) => {
            eprintln!(
                "serving sweeps from {root} at {} with {workers} workers; \
                 send {{\"op\":\"shutdown\"}} (or --sweep-client {root} --shutdown) to stop",
                server.addr()
            );
            server.serve_forever();
            eprintln!("server stopped");
        }
        Err(e) => {
            eprintln!("error[{}]: {e}", e.kind.label());
            std::process::exit(1);
        }
    }
}

/// Submit one sweep to the server advertised in `<root>/serve.addr` and
/// print the records plus the cache accounting.
fn sweep_client(root: &str, req: &drcf_serve::prelude::SweepRequest, shutdown: bool) {
    use drcf_serve::prelude::*;
    let fail = |e: drcf_kernel::prelude::SimError| -> ! {
        eprintln!("error[{}]: {e}", e.kind.label());
        std::process::exit(1);
    };
    let mut client = Client::connect_store(root).unwrap_or_else(|e| fail(e));
    if shutdown && req.points.is_empty() {
        client.shutdown().unwrap_or_else(|e| fail(e));
        eprintln!("server asked to shut down");
        return;
    }
    let reply = client.sweep(req).unwrap_or_else(|e| fail(e));
    let mut table =
        drcf_dse::prelude::Table::new("served sweep", &["clock (MHz)", "makespan (ns)", "ok"]);
    for r in &reply.records {
        table.row(vec![
            r.param("clock_mhz").unwrap_or("?").to_string(),
            format!("{:.0}", r.makespan_ns),
            r.ok.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "key {:016x}: {} from cache, {} simulated",
        reply.key, reply.from_cache, reply.simulated
    );
    if shutdown {
        client.shutdown().unwrap_or_else(|e| fail(e));
        eprintln!("server asked to shut down");
    }
}

/// Report a command-line usage error with the same typed-error shape the
/// snapshot-chain resume path uses — `error[<kind>]: message` on stderr,
/// exit code 2 — instead of an `expect` panic with a backtrace.
fn usage_error(msg: String) -> ! {
    use drcf_kernel::prelude::{SimError, SimErrorKind};
    let e = SimError::new(SimErrorKind::Validation, msg);
    eprintln!("error[{}]: {e}", e.kind.label());
    std::process::exit(2);
}

/// The operand following flag `args[i]`, or a typed usage error when the
/// flag ends the argument list or is followed by another flag.
fn operand<'a>(args: &'a [String], i: usize, flag: &str, what: &str) -> &'a str {
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => v,
        _ => usage_error(format!("{flag} needs {what}")),
    }
}

/// [`operand`], parsed; a non-parsing operand is a typed usage error too.
fn parsed_operand<T: std::str::FromStr>(args: &[String], i: usize, flag: &str, what: &str) -> T {
    let v = operand(args, i, flag, what);
    v.parse()
        .unwrap_or_else(|_| usage_error(format!("{flag} needs {what}, got {v:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--bench-json") {
        let (doc, divergences) = drcf_bench::hotpath::bench_json();
        let doc = doc.to_string_pretty();
        println!("{doc}");
        std::fs::write("BENCH_kernel.json", format!("{doc}\n")).expect("write BENCH_kernel.json");
        eprintln!("wrote BENCH_kernel.json");
        // A sharded run that left its oracle is recorded in the document
        // (for the perf gate) and fails the run after the file is written.
        for d in &divergences {
            eprintln!("{d}");
        }
        if !divergences.is_empty() {
            std::process::exit(1);
        }
        return;
    }
    let shards_arg = args
        .iter()
        .position(|a| a == "--shards")
        .map(|i| parsed_operand::<usize>(&args, i, "--shards", "a shard count"));
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        let path = operand(&args, i, "--trace-out", "a path");
        // With --shards the two flags compose: trace every LP of the
        // sharded E12 run and merge them into one document (previously
        // --shards was silently ignored here and the single-simulator
        // wireless trace was written instead).
        match shards_arg {
            Some(shards) => run_sharded_traced(shards, path),
            None => write_trace(path),
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--snapshot-out") {
        let path = operand(&args, i, "--snapshot-out", "a path");
        let at_ns = args
            .iter()
            .position(|a| a == "--at-ns")
            .map(|j| parsed_operand::<u64>(&args, j, "--at-ns", "an integer nanosecond count"));
        let deltas = args.iter().position(|a| a == "--deltas").map_or(0, |j| {
            parsed_operand::<usize>(&args, j, "--deltas", "an integer delta count")
        });
        write_snapshot(path, at_ns, deltas);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--resume-from") {
        let path = operand(&args, i, "--resume-from", "a path");
        resume_snapshot(path);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--serve") {
        let root = operand(&args, i, "--serve", "a store directory");
        let workers = args.iter().position(|a| a == "--workers").map_or(2, |j| {
            parsed_operand::<usize>(&args, j, "--workers", "a worker count")
        });
        serve_store(root, workers);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--sweep-client") {
        let root = operand(&args, i, "--sweep-client", "a store directory");
        let shutdown = args.iter().any(|a| a == "--shutdown");
        let points: Vec<u64> =
            args.iter()
                .position(|a| a == "--points")
                .map_or_else(Vec::new, |j| {
                    let list = operand(&args, j, "--points", "a comma-separated MHz list");
                    list.split(',')
                        .map(|p| {
                            p.trim().parse().unwrap_or_else(|_| {
                                usage_error(format!(
                                    "--points needs a comma-separated MHz list, got {p:?}"
                                ))
                            })
                        })
                        .collect()
                });
        if points.is_empty() && !shutdown {
            usage_error("--sweep-client needs --points (or --shutdown)".into());
        }
        let mut req = drcf_serve::prelude::SweepRequest::small(4_000, points);
        if let Some(j) = args.iter().position(|a| a == "--frames") {
            req.frames = parsed_operand::<usize>(&args, j, "--frames", "a frame count");
        }
        if let Some(j) = args.iter().position(|a| a == "--samples") {
            req.samples = parsed_operand::<usize>(&args, j, "--samples", "a sample count");
        }
        if let Some(j) = args.iter().position(|a| a == "--fork-ns") {
            req.fork_ns =
                parsed_operand::<u64>(&args, j, "--fork-ns", "an integer nanosecond count");
        }
        sweep_client(root, &req, shutdown);
        return;
    }
    if let Some(shards) = shards_arg {
        run_sharded(shards);
        return;
    }
    let markdown = args.iter().any(|a| a == "--markdown");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    for r in drcf_bench::run_all() {
        if !ids.is_empty() && !ids.iter().any(|i| i.eq_ignore_ascii_case(&r.id)) {
            continue;
        }
        if markdown {
            print!("{}", r.render_markdown());
        } else {
            print!("{}", r.render());
        }
    }
}
