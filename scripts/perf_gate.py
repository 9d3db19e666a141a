#!/usr/bin/env python3
"""CI perf-regression gate for BENCH_kernel.json.

Usage: perf_gate.py [path-to-BENCH_kernel.json]

Reads the bench JSON written by `experiments --bench-json`, embeds the
commit SHA (from $GITHUB_SHA, or `git rev-parse HEAD` as a fallback) into
the file as a `"commit"` field so the uploaded artifact is traceable to
the exact revision, appends a one-line summary of the run to
`BENCH_history.jsonl` (commit, timestamp, per-bench throughput, the
live speedups, the sharded runs' critical-link and parallel-efficiency
reports, and a `host` record with the hardware thread count; the file
is deduplicated by commit SHA, keeping the latest entry per commit, so
re-runs of the same revision don't inflate the trajectory), and exits
non-zero if:

- any `speedup_vs_baseline` entry has dropped below 1.0 — i.e. the
  current tree is slower than the baked per-scenario baseline;
- `ctx_switch_storm_on_vs_off` (the context-switch storm's wall time with
  configuration-train coalescing off over its wall time with it on) falls
  below 8.0x: a coalesced train must stay cheap to complete, not only to
  schedule;
- the live `warm_fork_speedup` (cold DSE sweep vs. copy-on-write
  warm-forked sweep, fork at 9/10 of the makespan) falls below 3.0x;
- `warm_fork_speedup` does not exceed `warm_fork_speedup_half` (the same
  sweep forked at 1/2 of the makespan): a longer shared prefix must help
  more, or the incremental fork path has stopped scaling with prefix
  length;
- `warm_fork_delta_identical` is false — a delta capture applied onto a
  full-snapshot restore landed on a different `state_hash` than a cold
  run (correctness gate, applies on any hardware);
- `sharded_soc_identical` or `sharded_e12_identical` is false — a sharded
  run diverged from its single-threaded oracle (correctness gates; they
  apply on any hardware);
- `sharded_soc_speedup` falls below 2.0x, or `sharded_e12_speedup` (the
  automatically partitioned E12 hierarchical topology) below 1.5x, *when
  the machine has at least 4 hardware threads* (`hw_threads`). On narrower
  machines a sharded bench cannot exhibit parallel speedup, so the number
  is reported informationally and only the bit-identity is enforced;
- `serve_cache_hit_speedup` (the identical sweep request re-served from
  the content-addressed snapshot store vs. served cold) falls below 2.0x,
  `serve_cache_hits` < `serve_points` (a repeat request failed to answer
  entirely from the store), or `serve_identical` is false — the warm
  answer must be bit-identical to the cold one (correctness gate).

The baselines live in `crates/bench/src/hotpath.rs`
(`BASELINE_EVENTS_PER_SEC`); see EXPERIMENTS.md for how they were
measured and how to re-bake them.
"""

import json
import os
import subprocess
import sys
import time

HISTORY = "BENCH_history.jsonl"
STORM_ON_VS_OFF_FLOOR = 8.0
WARM_FORK_SPEEDUP_FLOOR = 3.0
SHARDED_SPEEDUP_FLOOR = 2.0
SHARDED_E12_SPEEDUP_FLOOR = 1.5
SHARDED_MIN_HW_THREADS = 4
SERVE_CACHE_SPEEDUP_FLOOR = 2.0


def history_entry(bench: dict, sha: str) -> dict:
    """The one-line summary of this run for the history file."""
    entry = {
        "commit": sha,
        "timestamp": int(time.time()),
        "schema": bench.get("schema"),
        "events_per_sec": {
            m["name"]: m.get("events_per_sec")
            for m in bench.get("current", [])
            if isinstance(m, dict) and "name" in m
        },
        "speedup_vs_baseline": bench.get("speedup_vs_baseline", {}),
    }
    for key in (
        "ctx_switch_storm_on_vs_off",
        "warm_fork_speedup",
        "warm_fork_speedup_half",
        "warm_fork_delta_identical",
        "warm_fork_snapshot_full_bytes",
        "warm_fork_snapshot_delta_bytes",
        "warm_fork_snapshot_dirty_components",
        "sharded_soc_speedup",
        "sharded_soc_shards",
        "sharded_soc_identical",
        "sharded_soc_efficiency",
        "sharded_e12_speedup",
        "sharded_e12_shards",
        "sharded_e12_identical",
        "sharded_e12_efficiency",
        "sharded_e12_critical_link",
        "serve_cache_hit_speedup",
        "serve_cache_hits",
        "serve_points",
        "serve_identical",
        "hw_threads",
    ):
        if key in bench:
            entry[key] = bench[key]
    # Host context: the parallel-efficiency numbers are only comparable
    # between runs on similar machines, so record what this one was.
    entry["host"] = {
        "hw_threads": bench.get("hw_threads", os.cpu_count()),
    }
    return entry


def append_history(bench: dict, sha: str, history_path: str) -> None:
    """Append this run to the history file, deduplicating by commit SHA.

    The file stays one line per commit: an existing entry for the same SHA
    is replaced by the new one (latest wins, moved to the end), entries for
    other commits keep their relative order, and unparseable lines are
    dropped rather than replayed forever.
    """
    kept = []
    try:
        with open(history_path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    old = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(old, dict) and old.get("commit") != sha:
                    kept.append(old)
    except FileNotFoundError:
        pass
    kept.append(history_entry(bench, sha))
    with open(history_path, "w", encoding="utf-8") as f:
        for entry in kept:
            json.dump(entry, f, separators=(",", ":"), sort_keys=True)
            f.write("\n")


def gate_sharded(bench: dict, prefix: str, floor: float, failed: list) -> None:
    """Apply the bit-identity (always) and speedup (wide machines only)
    gates for one sharded bench, named by its key prefix."""
    identical = bench.get(f"{prefix}_identical")
    if identical is not None and not identical:
        print(
            f"perf gate: {prefix} DIVERGED from the single-threaded oracle",
            file=sys.stderr,
        )
        failed.append(f"{prefix}_identical")

    speedup = bench.get(f"{prefix}_speedup")
    if speedup is not None:
        hw = bench.get("hw_threads", 1)
        shards = bench.get(f"{prefix}_shards", "?")
        if hw >= SHARDED_MIN_HW_THREADS:
            verdict = "ok" if speedup >= floor else "REGRESSION"
            print(
                f"perf gate: {prefix} speedup {speedup:.2f}x at {shards} shards "
                f"(floor {floor}x, {hw} hw threads)  [{verdict}]"
            )
            if speedup < floor:
                failed.append(f"{prefix}_speedup")
        else:
            print(
                f"perf gate: {prefix} speedup {speedup:.2f}x at {shards} shards "
                f"(informational: only {hw} hw thread(s), floor needs "
                f">= {SHARDED_MIN_HW_THREADS}; bit-identity still enforced)"
            )


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_kernel.json"
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)

    sha = os.environ.get("GITHUB_SHA")
    if not sha:
        try:
            sha = subprocess.check_output(
                ["git", "rev-parse", "HEAD"], text=True
            ).strip()
        except (OSError, subprocess.CalledProcessError):
            sha = "unknown"
    bench["commit"] = sha
    with open(path, "w", encoding="utf-8") as f:
        json.dump(bench, f, indent=2)
        f.write("\n")

    history_path = os.path.join(os.path.dirname(path) or ".", HISTORY)
    append_history(bench, sha, history_path)
    print(f"perf gate: appended run {sha[:12]} to {history_path} (deduped by commit)")

    speedups = bench.get("speedup_vs_baseline", {})
    if not speedups:
        print(f"perf gate: no speedup_vs_baseline in {path}", file=sys.stderr)
        return 1

    failed = []
    for name in sorted(speedups):
        ratio = speedups[name]
        verdict = "ok" if ratio >= 1.0 else "REGRESSION"
        print(f"perf gate: {name:24s} {ratio:6.2f}x vs baseline  [{verdict}]")
        if ratio < 1.0:
            failed.append(name)

    ratio = bench.get("ctx_switch_storm_on_vs_off")
    if ratio is not None:
        floor = STORM_ON_VS_OFF_FLOOR
        verdict = "ok" if ratio >= floor else "REGRESSION"
        print(
            f"perf gate: storm coalescing on-vs-off {ratio:.2f}x "
            f"(floor {floor}x)  [{verdict}]"
        )
        if ratio < floor:
            failed.append("ctx_switch_storm_on_vs_off")

    warm = bench.get("warm_fork_speedup")
    if warm is not None:
        floor = WARM_FORK_SPEEDUP_FLOOR
        verdict = "ok" if warm >= floor else "REGRESSION"
        print(
            f"perf gate: warm-fork DSE speedup {warm:.2f}x at 9/10 fork "
            f"(floor {floor}x)  [{verdict}]"
        )
        if warm < floor:
            failed.append("warm_fork_speedup")
        # Prefix-length scaling: forking later (9/10 of the makespan) skips
        # more shared prefix than forking at 1/2, so it must pay off more.
        half = bench.get("warm_fork_speedup_half")
        if half is not None:
            verdict = "ok" if warm > half else "REGRESSION"
            print(
                f"perf gate: warm-fork speedup scaling {half:.2f}x @1/2 -> "
                f"{warm:.2f}x @9/10  [{verdict}]"
            )
            if warm <= half:
                failed.append("warm_fork_prefix_scaling")

    delta_ok = bench.get("warm_fork_delta_identical")
    if delta_ok is not None:
        if delta_ok:
            print("perf gate: warm-fork delta round trip bit-identical  [ok]")
        else:
            print(
                "perf gate: warm-fork delta restore DIVERGED from the cold run",
                file=sys.stderr,
            )
            failed.append("warm_fork_delta_identical")

    gate_sharded(bench, "sharded_soc", SHARDED_SPEEDUP_FLOOR, failed)
    gate_sharded(bench, "sharded_e12", SHARDED_E12_SPEEDUP_FLOOR, failed)

    serve = bench.get("serve_cache_hit_speedup")
    if serve is not None:
        floor = SERVE_CACHE_SPEEDUP_FLOOR
        hits = bench.get("serve_cache_hits", 0)
        points = bench.get("serve_points", 0)
        verdict = "ok" if serve >= floor else "REGRESSION"
        print(
            f"perf gate: serve cache-hit speedup {serve:.2f}x, "
            f"{hits}/{points} points from store (floor {floor}x)  [{verdict}]"
        )
        if serve < floor:
            failed.append("serve_cache_hit_speedup")
        if hits < points:
            print(
                "perf gate: repeat sweep request was NOT fully answered from the store",
                file=sys.stderr,
            )
            failed.append("serve_cache_hits")
        if not bench.get("serve_identical", True):
            print(
                "perf gate: store-served records DIVERGED from the cold run",
                file=sys.stderr,
            )
            failed.append("serve_identical")

    if failed:
        print(
            f"perf gate: FAILED — {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    print(f"perf gate: all {len(speedups)} scenarios at or above baseline ({sha[:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
