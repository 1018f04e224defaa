"""Steadiness check: two sets of runs of the same code, side by side.

Usage, from the root of a checkout::

    python3 trodbench/steady.py                 # 2 sets x 10 runs, every workload
    python3 trodbench/steady.py --sets 1 --runs 5 --workload trod-serve

Runs go one at a time (never in parallel: they would compete for the
machine's two cores), alternating the workloads, each with another seed.
For every end-to-end metric of every workload it prints each set's
median, quartiles and spread (the distance between the quartiles as a
share of the median, as ``statistics.quantiles(values, n=4)`` gives
them) next to the metric's bound in BENCHMARK.json, and how far the
second set's median moved from the first's in the worse direction. A
spread above a third of its bound, or a move above the bound, is marked
with ``!``. Bounds are set and re-checked with this tool.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from percentiles import spread  # noqa: E402


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    results: dict[tuple[int, str], list[dict]] = {}
    seed = args.seed_base
    for set_index in range(args.sets):
        for run in range(args.runs):
            for name in names:
                seed += 1
                result = run_once(spec, name, seed)
                results.setdefault((set_index, name), []).append(result)
                print(f"set {set_index + 1} run {run + 1} {name} seed {seed}: "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)

    bad = 0
    for name in names:
        print(f"\n{name}")
        shares = {
            s: sorted({r["failed"] / r["attempted"] for r in results[(s, name)]})
            for s in range(args.sets)
        }
        print(f"  failed share per set: {shares}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians = []
            cells = []
            for s in range(args.sets):
                values = [r["metrics"][key]["value"] for r in results[(s, name)]]
                median, q1, q3, rel = spread(values)
                medians.append(median)
                flag = "!" if rel > bound / 3 else " "
                bad += flag == "!"
                cells.append(f"med {median:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} spread {rel:6.3f}{flag}")
            line = f"  {key:16s} bound {bound:4.2f} | " + " | ".join(cells)
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                flag = "!" if worse > bound else " "
                bad += flag == "!"
                line += f" | moved {worse:+.3f}{flag}"
            print(line)
    print(f"\n{bad} figure(s) outside their target")
    return 0


if __name__ == "__main__":
    sys.exit(main())
