#!/usr/bin/env python3
"""Build and run the end-to-end federation-round benchmark.

  python3 bench_e2e/run.py --workload NAME [--seed N] [--trace 0|1]
      One run of one workload.  The last line of stdout is the JSON result
      {"correct", "attempted", "failed", "metrics"}.
  python3 bench_e2e/run.py [--seed N] [--trace 0|1] [--out FILE]
      Every workload, one at a time, each in a fresh process.  --out appends
      one JSON record per run (host stamp included) for --compare.  Exits
      non-zero if any correctness gate fails.  With --trace 1, --trace-dir DIR
      also writes every span and the full layer table.
  python3 bench_e2e/run.py --smoke
      Every workload for 3 rounds, untraced and traced, through the gates.
  python3 bench_e2e/run.py --compare BASE.jsonl NEW.jsonl [--benchmark FILE]
      Per workload and end-to-end metric, over the seeds both files ran:
      improved, unchanged, regressed or unresolved, against the bounds in
      BENCHMARK.json.  Exits non-zero on a regression, and refuses records
      from different hosts.

Each workload runs a fixed number of rounds, so --seconds changes nothing:
it is accepted because the standard benchmark command line passes it, and
BENCHMARK.json's run_seconds states how long one run takes.

The binary is built from source into .bench_build/ at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

# Pairs on matched seeds a verdict needs; a gain needs MIN_GAIN_PAIRS.
MIN_PAIRS = 5
MIN_GAIN_PAIRS = 10

# Bounds in the metric's own unit.  BENCHMARK.json can only hold a share of
# the parent's median, which for accuracy must cover the spread across seeds;
# on matched seeds accuracy is deterministic, so --compare holds it to 0.01.
ABSOLUTE_BOUNDS = {"final_accuracy": 0.01}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build only the benchmark binary; all build output
    goes to stderr so stdout stays the benchmark's."""
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            sys.exit(1)
    return str(BUILD / "bench_e2e")


def load_benchmark(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")


def bench_args(workload, seed, trace, trace_dir=None):
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    return args + (["--trace-dir", trace_dir] if trace_dir else [])


def run_one(binary, args):
    """Run one workload in a fresh process; echo its output; return
    (exit code, host stamp, result)."""
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    host, result = None, None
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, host, result


def run_all(binary, names, args):
    ok = True
    for name in names:
        code, host, result = run_one(binary, bench_args(name, args.seed, args.trace,
                                                        args.trace_dir))
        ok = ok and code == 0 and result is not None and result["correct"]
        if args.out and result is not None:
            record = {"workload": name, "seed": args.seed, "trace": args.trace,
                      "host": host, **result}
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
    print("all workloads passed their gates" if ok else "a workload FAILED its gates")
    return 0 if ok else 1


def run_smoke(binary, names):
    """Two runs at a time: the smoke checks the gates, not the timings."""
    def smoke(job):
        name, trace = job
        code, _, result = run_one(binary, bench_args(name, 17, trace) +
                                  ["--rounds", "3", "--federations", "1"])
        return code == 0 and result is not None and result["correct"]

    with ThreadPoolExecutor(max_workers=2) as pool:
        ok = all(pool.map(smoke, [(name, trace) for name in names for trace in (1, 0)]))
    print("smoke passed" if ok else "smoke FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Comparator


def load_records(path):
    try:
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")


def host_key(record):
    host = dict(record.get("host") or {})
    host.pop("commit", None)  # the two sides are different commits by design
    return json.dumps(host, sort_keys=True)


def by_seed(records, workload, metric):
    """{seed: median of the untraced runs of that seed}."""
    runs = {}
    for r in records:
        if (r["workload"] == workload and r.get("trace", 0) == 0
                and metric in r.get("metrics", {})):
            runs.setdefault(r["seed"], []).append(r["metrics"][metric]["value"])
    return {seed: statistics.median(values) for seed, values in runs.items()}


def iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(pairs, bound, higher_is_better, absolute=None):
    """The choosing-metrics rules on (base, new) values of matched seeds.

    Each pair's change is the new run's gain over the parent's on the same
    seed (positive = better): a share of the parent's value, or in the
    metric's unit when the bound is absolute.  Their interquartile distance
    is the run-to-run spread, free of the differences between seeds."""
    if len(pairs) < MIN_PAIRS:
        return "unresolved", 0, 0.0, 0.0
    sign = 1.0 if higher_is_better else -1.0
    limit = bound if absolute is None else absolute

    def change(b, n):
        if absolute is not None:
            return sign * (n - b)
        return sign * (n - b) / abs(b) if b else 0.0

    changes = [change(b, n) for b, n in pairs]
    wins = sum(1 for c in changes if c > 0)  # ties: neither
    noise, median_change = iqr(changes), statistics.median(changes)
    base, new = [b for b, _ in pairs], [n for _, n in pairs]
    every_run_better = min(sign * n for n in new) > max(sign * b for b in base)
    if noise > limit and not every_run_better:
        return "unresolved", wins, median_change, noise
    if median_change < -limit:
        return "regressed", wins, median_change, noise
    if (len(pairs) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(pairs)
            and sign * (statistics.median(new) - statistics.median(base)) > iqr(base)):
        return "improved", wins, median_change, noise
    return "unchanged", wins, median_change, noise


def compare(base_path, new_path, benchmark_path):
    base, new = load_records(base_path), load_records(new_path)
    if not base or not new:
        fail("both files need at least one record")
    if len({host_key(r) for r in base + new}) != 1:
        print("run.py: the records come from different hosts (or builds); "
              "refusing to compare", file=sys.stderr)
        return 2
    metrics = load_benchmark(benchmark_path)["end_to_end"]
    workloads = sorted({r["workload"] for r in base + new if r.get("trace", 0) == 0})
    regressed = False
    for workload in workloads:
        for m in metrics:
            b, n = by_seed(base, workload, m["name"]), by_seed(new, workload, m["name"])
            seeds = sorted(b.keys() & n.keys())
            pairs = [(b[s], n[s]) for s in seeds]
            absolute = ABSOLUTE_BOUNDS.get(m["name"])
            result, wins, change, noise = verdict(pairs, m["bound"],
                                                  m["better"] == "higher", absolute)
            regressed = regressed or result == "regressed"
            if len(pairs) < MIN_PAIRS:
                print(f"{workload} {m['name']} {result}  ({len(pairs)} pairs on matched "
                      f"seeds, {MIN_PAIRS} needed)")
                continue
            mb = statistics.median(p[0] for p in pairs)
            mn = statistics.median(p[1] for p in pairs)
            if absolute is None:
                gain, bound, spread = f"{change:+.2%}", f"{m['bound']:.2%}", f"{noise:.2%}"
            else:
                gain, bound, spread = f"{change:+.4f}", f"{absolute:.4f}", f"{noise:.4f}"
            print(f"{workload} {m['name']} {result}  {mb:.6g} -> {mn:.6g} {m['unit']}"
                  f"  median gain {gain} (bound {bound}), paired spread {spread},"
                  f" wins {wins}/{len(pairs)}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, help="accepted and ignored (see above)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir",
                        help="with --trace 1: write spans and layer tables here")
    parser.add_argument("--out", help="append one JSON record per run here")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--binary", help="use this bench_e2e instead of building one")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare, args.benchmark)
    benchmark = load_benchmark(args.benchmark)
    names = [w["name"] for w in benchmark["workloads"]]
    binary = args.binary or build()
    if args.smoke:
        return run_smoke(binary, names)
    if args.workload != "all":
        if not args.out:
            sys.stdout.flush()
            os.execv(binary, [binary, *bench_args(args.workload, args.seed, args.trace,
                                                  args.trace_dir)])
        names = [args.workload]
    return run_all(binary, names, args)


if __name__ == "__main__":
    sys.exit(main())
