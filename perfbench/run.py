#!/usr/bin/env python3
"""Build and run the cfdclean end-to-end benchmark.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build the benchmark (release, offline) and run one measurement. The
      last stdout line is the JSON result. Extra flags (--scale toy,
      --results FILE) pass through to the benchmark binary.

  python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
      Compare two sets of detailed results (written with --results), the
      i-th record of each workload in one file paired with the i-th in the
      other. Prints medians, quartiles and the share of pairs the change
      won for every workload x end-to-end metric, with a verdict.

  python3 perfbench/run.py pairs --parent DIR --change DIR [--runs 10]
      [--seconds S] [--seed0 N] [--workloads a,b]
      Run two checkouts in alternating pairs (same seed within a pair,
      alternating which side goes first), then compare them.

  python3 perfbench/run.py smoke
      Toy-size self-check: every workload with every output check on, the
      traced decomposition, a repeat on the same seed (digests must match)
      and one run on a second seed.

Workloads, metrics and bounds are defined in BENCHMARK.json at the root.
"""

import json
import os
import statistics
import subprocess
import sys
import time

# Every workload the benchmark binary runs. BENCHMARK.json lists the ones
# the regression check measures; the traced run and the smoke check cover
# all of them.
WORKLOADS = ["oneshot_batch_20k", "daemon_mix_6k", "stream_window_20k"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir(root, own=False):
    """Cargo's target directory for the checkout at `root`; `own` keeps
    it inside the checkout so two checkouts never share binaries."""
    target = os.environ.get("CARGO_TARGET_DIR")
    if target and not (own and os.path.isabs(target)):
        return os.path.join(root, target)
    return os.path.join(root, "perfbench", "target")


def build(root=ROOT, own=False):
    """Build the benchmark from source; returns the binary path."""
    target = target_dir(root, own)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    result = subprocess.run(cmd, cwd=root, env=env)
    if result.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def run_binary(binary, args, root=ROOT, capture=False):
    cmd = [binary, "--out-dir", os.path.join(root, ".perfbench_out")] + args
    if capture:
        return subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    return subprocess.run(cmd, cwd=root)


# ---------------------------------------------------------------------------
# compare


def read_results(path):
    by_workload = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """The choosing-metrics section 8 rule over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    n = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - pmed)
    if n and wins >= 0.9 * n and gain > 0 and abs(cmed - pmed) > (pq3 - pq1):
        return "improved", wins, n
    spread = (pq3 - pq1) / abs(pmed) if pmed else float("inf")
    worse_by = -gain / abs(pmed) if pmed else (0.0 if gain >= 0 else float("inf"))
    if bound is None:
        return ("no worse" if gain >= 0 else "worse, no bound"), wins, n
    if worse_by > bound:
        return ("regressed" if spread <= bound else "unresolved"), wins, n
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved", wins, n
    return "no worse within bound", wins, n


def compare(parent_path, change_path, spec=None):
    spec = spec or load_spec()
    families = {m["name"]: m for m in spec["end_to_end"]}
    parent = read_results(parent_path)
    change = read_results(change_path)
    for workload in sorted(set(parent) & set(change)):
        ps, cs = parent[workload], change[workload]
        failed = [sum(r["failed"] for r in runs) for runs in (ps, cs)]
        attempted = [sum(r["attempted"] for r in runs) for runs in (ps, cs)]
        print(f"== {workload}: {len(ps)} parent / {len(cs)} change runs, "
              f"failed {failed[0]}/{attempted[0]} parent, {failed[1]}/{attempted[1]} change")
        # A gain does not count when more operations fail than at the parent.
        more_failures = failed[1] > failed[0]
        print(f"   {'metric':<18} {'unit':<6} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>6}  verdict")
        names = [n for n in ps[0]["metrics"] if n in cs[0]["metrics"]]
        for name in names:
            m = ps[0]["metrics"][name]
            fam = families.get(m.get("family") or name)
            better = fam["better"] if fam else "lower"
            bound = fam.get("bound") if fam else None
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            if any(v is None for v in pv + cv):
                continue
            v, wins, n = verdict(pv, cv, better, bound)
            if v == "improved" and more_failures:
                v = "unresolved"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"   {name:<18} {m['unit']:<6} {fmt(quartiles(pv)):>32} "
                  f"{fmt(quartiles(cv)):>32} {wins:>3}/{n:<2}  {v}")


def pairs(argv):
    opts = {"--runs": "10", "--seconds": None, "--seed0": "1000", "--workloads": None}
    dirs = {}
    it = iter(argv)
    for flag in it:
        if flag in ("--parent", "--change"):
            dirs[flag[2:]] = os.path.abspath(next(it))
        elif flag in opts:
            opts[flag] = next(it)
        else:
            sys.exit(f"perfbench: unknown pairs flag {flag}")
    if set(dirs) != {"parent", "change"}:
        sys.exit("perfbench: pairs needs --parent DIR and --change DIR")
    spec = load_spec(dirs["change"])
    workloads = (opts["--workloads"].split(",") if opts["--workloads"]
                 else [w["name"] for w in spec["workloads"]])
    seconds = opts["--seconds"] or str(spec["run_seconds"])
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out = os.path.join(OUT, f"pairs-{stamp}")
    os.makedirs(out, exist_ok=True)
    binaries = {side: build(d, own=True) for side, d in dirs.items()}
    files = {side: os.path.join(out, f"{side}.jsonl") for side in dirs}
    for i in range(int(opts["--runs"])):
        seed = str(int(opts["--seed0"]) + i)
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                r = run_binary(binaries[side],
                               ["--workload", workload, "--seed", seed, "--seconds", seconds,
                                "--trace", "0", "--results", files[side]],
                               root=dirs[side], capture=True)
                if r.returncode != 0:
                    sys.exit(f"perfbench: {side} run failed:\n{r.stderr}")
                print(f"pair {i} {workload} {side}: {r.stdout.strip().splitlines()[-1]}",
                      flush=True)
    print(f"results in {out}")
    compare(files["parent"], files["change"], spec)


# ---------------------------------------------------------------------------
# smoke


def smoke():
    spec = load_spec()
    binary = build()
    results = os.path.join(OUT, "smoke.jsonl")
    if os.path.exists(results):
        os.remove(results)
    failures = []

    def run(workload, seed, trace):
        r = run_binary(binary, ["--workload", workload, "--seed", str(seed), "--seconds", "2",
                                "--trace", str(trace), "--scale", "toy",
                                "--results", results], capture=True)
        label = f"{workload} seed {seed} trace {trace}"
        if r.returncode != 0:
            failures.append(f"{label}: exit {r.returncode}: {r.stderr.strip()}")
            return None
        last = json.loads(r.stdout.strip().splitlines()[-1])
        want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        missing = [n for n in want if n not in last["metrics"]]
        missing += [f"unexpected {n}" for n in last["metrics"] if n not in want]
        zero = [n for n, m in last["metrics"].items()
                if not trace and not m["value"]]
        if not last["correct"] or last["failed"] or missing or zero:
            failures.append(f"{label}: correct={last['correct']} failed={last['failed']} "
                            f"missing={missing} zero={zero}")
        print(f"smoke {label}: correct={last['correct']} "
              f"attempted={last['attempted']} failed={last['failed']}", flush=True)
        return last

    names = WORKLOADS
    for w in names:
        run(w, 1, 0)
    run(names[0], 1, 1)  # traced: every workload, decomposition checked
    for w in names:
        run(w, 1, 0)  # same seed again: digests must repeat
        run(w, 2, 0)  # a seed not used while writing a change
    digests = {}
    with open(results) as f:
        for line in f:
            rec = json.loads(line)
            if rec["trace"] or rec["digest"] is None:
                continue
            digests.setdefault((rec["workload"], rec["seed"]), set()).add(rec["digest"])
    for (w, seed), ds in sorted(digests.items()):
        if len(ds) != 1:
            failures.append(f"{w} seed {seed}: output digests differ across runs: {sorted(ds)}")
    for f in failures:
        print(f"FAIL {f}")
    print("smoke: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
        compare(argv[1], argv[2])
        return 0
    if argv and argv[0] == "pairs":
        pairs(argv[1:])
        return 0
    if argv and argv[0] == "smoke":
        return smoke()
    binary = build()
    return run_binary(binary, argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
