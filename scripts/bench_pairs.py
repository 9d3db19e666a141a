#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark (perfbench) on two checkouts.

Usage: bench_pairs.py PARENT CHANGE --workload W [--seed N] [--pairs P]
                      [--seconds S]

PARENT and CHANGE are two checkouts of this repository, for example a
`git clone` of the parent commit and the working tree. Each runs the
benchmark command of its own `BENCHMARK.json` (a `cargo run`, so the first
run builds it), `--pairs` times, alternating which side goes first, untraced,
on one workload and seed. This is the pair method a performance claim rests
on:

- for every end-to-end metric of `BENCHMARK.json`, each side's median and
  quartiles over its runs, the ratio of the change's median to the
  parent's (`change/parent`; above 1 is more of the metric, whichever
  direction is better), and how many pairs the change won (ties count for
  neither side);
- `gain` when the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile range;
- `REGRESSION` when the change's median is worse than the parent's by
  more than the metric's bound;
- `unresolved` otherwise, when the parent's interquartile range is wider
  than the metric's bound relative to its median: the runs spread too
  widely to say the metric did not move. A blank verdict means neither a
  gain nor a regression was seen on a metric the runs can resolve.

The run fails (exit 1) when any run fails or reports failed ops, or when
the two sides disagree on `output_digest` or on any exact count: a
performance change must keep the simulated results bit-identical.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, command, args):
    """Run the benchmark once in `checkout`; return (metrics, identity)."""
    argv = command + [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: benchmark exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: {result['failed']} of {result['attempted']} ops failed")
    # The digest and the exact counts must not depend on the code's speed.
    identity = [l for l in lines[:-1] if l.startswith(("output_digest ", "count "))]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, identity


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args()

    sides = {"parent": args.parent, "change": args.change}
    spec = load_benchmark(args.change)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    commands = {side: load_benchmark(path)["command"] for side, path in sides.items()}

    runs = {"parent": [], "change": []}
    identities = {}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            metrics, identity = run_once(sides[side], commands[side], args)
            runs[side].append(metrics)
            identities.setdefault(side, identity)
            if identity != identities[side]:
                sys.exit(f"{side}: digest or exact counts changed between runs")
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} pairs {args.pairs} "
          f"seconds {args.seconds:g}")
    print(f"{'metric':<14} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'change/parent':>13} "
          f"{'won':>6}  verdict")
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        wins = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(p, c))
        pm, cm = statistics.median(p), statistics.median(c)
        (pq1, pq3), (cq1, cq3) = quartiles(p), quartiles(c)
        gain = (cm - pm) if higher else (pm - cm)
        worse = -gain / pm if pm else 0.0
        verdict = ""
        if wins >= 0.9 * args.pairs and gain > pq3 - pq1:
            verdict = "gain"
        elif worse > m["bound"]:
            verdict = f"REGRESSION (bound {m['bound']:g})"
        elif pm and (pq3 - pq1) / pm > m["bound"]:
            verdict = (f"unresolved (parent spread {(pq3 - pq1) / pm:.2f} "
                       f"> bound {m['bound']:g})")
        ratio = f"{cm / pm:.3f}" if pm else "-"
        print(f"{name:<14} {f'{pm:.5g} [{pq1:.5g}, {pq3:.5g}]':<34} "
              f"{f'{cm:.5g} [{cq1:.5g}, {cq3:.5g}]':<34} {ratio:>13} "
              f"{f'{wins}/{args.pairs}':>6}  {verdict}")

    if identities["parent"] != identities["change"]:
        diff = set(identities["parent"]) ^ set(identities["change"])
        sys.exit("parent and change disagree on the digest or exact counts:\n"
                 + "\n".join(sorted(diff)))
    print("output_digest and exact counts identical")


if __name__ == "__main__":
    main()
