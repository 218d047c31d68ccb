"""Run the benchmark in two sets of runs and report whether they agree.

    python3 perfbench/compare.py [--runs 10]

Each of the two sets runs every workload --runs times, each run with its own
seed (1, 2, ... across both sets), for the run length in BENCHMARK.json, one
run at a time. For each end-to-end metric it prints the median and quartiles
of each set, the spread (third minus first quartile, over the median) and
how far the second set's median lies from the first's. The sets agree when
every spread is within the metric's bound, the two medians differ, in either
direction, by at most the bound, and the share of failed operations is the
same in both sets.
Raw results, each run's printed lines included, go to
.perfbench_out/compare-<time>.json. Exit code 0 means the
sets agree.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def failed_share(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def worse_by(first, later, better):
    """Share by which the later median is worse than the first (negative
    when it is better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}: {res.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    out["log"] = lines[:-1]
    return out


def evaluate(bench, results):
    """results[set][workload] -> list of run outputs, for two sets.
    Returns (ok, report lines)."""
    ok, lines = True, []
    for w in bench["workloads"]:
        name = w["name"]
        shares = {failed_share(runs[name]) for runs in results}
        if len(shares) != 1:
            ok = False
            lines.append(f"{name}: failed shares differ between sets: {sorted(shares)}")
        if not all(r["correct"] for runs in results for r in runs[name]):
            ok = False
            lines.append(f"{name}: a run reported incorrect output")
        for m in bench["end_to_end"]:
            per_set = [[r["metrics"][m["name"]]["value"] for r in runs[name]] for runs in results]
            cells = []
            for vals in per_set:
                q1, med, q3 = quartiles(vals)
                s = spread(vals)
                flag = ""
                if s > m["bound"]:
                    ok, flag = False, " SPREAD>BOUND"
                cells.append(f"median {med:.5g} [{q1:.5g}, {q3:.5g}] spread {s:.3f}{flag}")
            shift = worse_by(statistics.median(per_set[0]), statistics.median(per_set[1]),
                             m["better"])
            flag = " SHIFT>BOUND" if abs(shift) > m["bound"] else ""
            ok = ok and not flag
            lines.append(f"{name:15s} {m['name']:12s} " + " | ".join(cells)
                         + f" | set 2 worse by {shift:+.3f} (bound {m['bound']}){flag}")
    return ok, lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    if args.runs < 3:
        p.error("quartiles need at least 3 runs")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    seed = 1
    for s in range(2):
        runs = {w["name"]: [] for w in bench["workloads"]}
        for _ in range(args.runs):
            for w in bench["workloads"]:
                out = run_once(bench, w["name"], seed)
                runs[w["name"]].append(out)
                print(f"set {s + 1} {w['name']} seed {seed}: wall {out['wall_s']:.1f} s, "
                      f"attempted {out['attempted']}, failed {out['failed']}, "
                      + ", ".join(f"{k} {v['value']:.5g}" for k, v in out["metrics"].items()),
                      flush=True)
            seed += 1
        results.append(runs)

    ok, lines = evaluate(bench, results)
    print("\n".join(lines))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"args": vars(args), "results": results}, indent=1) + "\n")
    print(f"{'AGREE' if ok else 'DISAGREE'}: 2 sets of {args.runs} runs; raw results in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
