#!/usr/bin/env python3
"""A/B comparison of two git revisions with the valcon benchmark.

    python3 perfbench/ab.py REV_A REV_B [--workloads W1,W2] [--pairs 10]
                            [--seconds S] [--trace 0|1] [--seed N]
                            [--work DIR]

Run it from inside the repository. Each revision is exported with
`git archive` into its own directory under --work (default .bench_ab at
the repository root), and this checkout's perfbench/ and BENCHMARK.json
are copied over both, so the two sides run identical benchmark code and
settings. Each side is built once. Then, per workload, `--pairs` pairs of
runs are made with seeds N, N+1, ...; both sides of a pair use the same
seed, and the side that runs first alternates from pair to pair.

For every metric the report gives each side's median and quartiles and
the share of pairs B won (ties count for neither side). Following the
choosing-metrics rule, "B better" needs at least ten pairs, B winning at
least nine tenths of them, and medians that differ by more than A's own
quartile spread. An end-to-end metric whose B median is worse than A's
by more than its BENCHMARK.json bound is reported as "B WORSE"; one whose
spread among A's runs exceeds its bound is "unresolved" unless B won
every pair.
Raw results are written to DIR/ab-results.json.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402  (perfbench/run.py: the build step)


def git(repo, *args, binary=False):
    out = subprocess.run(["git", "-C", repo] + list(args), check=True,
                         capture_output=True)
    return out.stdout if binary else out.stdout.decode().strip()


def export(repo, rev, work):
    sha = git(repo, "rev-parse", "--verify", rev + "^{commit}")
    side = os.path.join(work, sha[:12])
    if os.path.isdir(side):
        shutil.rmtree(side)
    os.makedirs(side)
    archive = git(repo, "archive", "--format=tar", sha, binary=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(side)
    # Identical benchmark code on both sides: this checkout's copy.
    shutil.rmtree(os.path.join(side, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(repo, "perfbench"),
                    os.path.join(side, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(repo, "BENCHMARK.json"), side)
    return sha, side


def run_once(side, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    out = subprocess.run(cmd, cwd=side, env=env, capture_output=True,
                         text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit("ab: %s run failed in %s (seed %d)" %
                         (workload, side, seed))
    return json.loads(lines[-1])["metrics"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(metric, a, b, wins, pairs):
    q1a, ma, q3a = quartiles(a)
    _, mb, _ = quartiles(b)
    lower = metric["better"] == "lower"
    bound = metric.get("bound")
    worse_by = ((mb - ma) if lower else (ma - mb)) / abs(ma) if ma else 0.0
    if bound is not None and worse_by > bound:
        return "B WORSE"
    if wins >= 0.9 * pairs and abs(mb - ma) > q3a - q1a:
        return "B better" if pairs >= 10 else "B ahead (fewer than 10 pairs)"
    if bound is not None and ma and (q3a - q1a) / abs(ma) > bound \
            and wins < pairs:
        return "unresolved"
    return "no change"


def main():
    parser = argparse.ArgumentParser(
        description="A/B two git revisions with the valcon benchmark")
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--work", default=None)
    args = parser.parse_args()

    repo = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(repo, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in
               spec["per_layer" if args.trace == "1" else "end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    work = os.path.abspath(args.work or os.path.join(repo, ".bench_ab"))
    os.makedirs(work, exist_ok=True)

    sides = []
    for rev in (args.rev_a, args.rev_b):
        sha, side = export(repo, rev, work)
        print("building %s (%s) in %s" % (rev, sha[:12], side), flush=True)
        bench.build(side, os.path.join(side, ".bench_build"))
        sides.append(side)

    results = {}
    for workload in args.workloads.split(","):
        runs = {"A": [], "B": []}
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for name in order:
                side = sides[0] if name == "A" else sides[1]
                runs[name].append(run_once(side, workload, seed, seconds,
                                           args.trace))
            print("%s: pair %d/%d done" % (workload, pair + 1, args.pairs),
                  flush=True)
        results[workload] = runs

        print("\n== %s  (A = %s, B = %s, %d pairs, %.0f s runs)" %
              (workload, args.rev_a, args.rev_b, args.pairs, seconds))
        print("%-42s %30s %30s %6s  %s" % ("metric", "A q1/median/q3",
                                           "B q1/median/q3", "B won",
                                           "verdict"))
        for name, metric in metrics.items():
            a = [r[name]["value"] for r in runs["A"]]
            b = [r[name]["value"] for r in runs["B"]]
            lower = metric["better"] == "lower"
            wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
            qa, qb = quartiles(a), quartiles(b)
            print("%-42s %30s %30s %6s  %s" % (
                name, "%.4g/%.4g/%.4g" % qa, "%.4g/%.4g/%.4g" % qb,
                "%d/%d" % (wins, args.pairs),
                verdict(metric, a, b, wins, args.pairs)))

    with open(os.path.join(work, "ab-results.json"), "w",
              encoding="utf-8") as f:
        json.dump({"a": args.rev_a, "b": args.rev_b, "results": results}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
