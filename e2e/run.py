#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see e2e/README.md).

Run from the root of the repository:

  python3 e2e/run.py --workload W --seed S --seconds T --trace 0|1
      Build e2e/main.exe into .bench_build and run one workload.  The
      last line of stdout is the result object.

  python3 e2e/run.py --sweep N --out FILE
      Run every workload untraced with seeds 1..N for BENCHMARK.json's
      run_seconds each, the workloads in turn for each seed, write all
      results
      to FILE and print each end-to-end metric's spread: the distance
      between its quartiles over its median.

  python3 e2e/run.py --compare BASE.json NEW.json
      Compare two sweeps with the bounds in BENCHMARK.json: one row per
      (metric, workload).  A row is unresolved when a side's spread
      exceeds the bound.  Exits 1 on a regression.
"""

import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "e2e", "main.exe")


def build():
    # Keep every build artifact inside the checkout: no shared cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./e2e/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"e2e: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def pin():
    """Keep a measured run on one CPU.  On a shared two-vCPU machine a
    serve request otherwise wakes the daemon and then the client across
    CPUs, through the hypervisor: unpinned, the serve p99 ranged
    4.5-5.4 ms over three processes; pinned, 4.77-4.82 ms.  Traced runs
    stay unpinned so that the two-domain speedup can be measured."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def run_one(workload, seed, seconds, trace):
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                          preexec_fn=None if trace else pin)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def sweep(n, out):
    bench = spec()
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    runs = []
    # seed by seed, each workload in turn: the machine can slow by a
    # third for a minute, and run workload by workload that hit four
    # consecutive kernels seeds and pushed their spreads to 0.2-0.29
    for seed in range(1, n + 1):
        for w in names:
            code, result = run_one(w, seed, seconds, 0)
            if code != 0 or result is None:
                print(f"e2e: {w} seed {seed} failed (exit {code})", file=sys.stderr)
                return 1
            runs.append({"workload": w, "seed": seed, "result": result})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
    with open(out, "w") as f:
        json.dump({"seconds": seconds, "runs": runs}, f, indent=1)
    for w in names:
        for m in bench["end_to_end"]:
            vals = values_of(runs, w, m["name"])
            print(f"{m['name']:18} {w:12} median {statistics.median(vals):12.5g}"
                  f"  spread {spread(vals):6.3f}  bound {m['bound']}")
    return 0


def values_of(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"]
            for r in runs if r["workload"] == workload]


def compare(base_path, new_path):
    bench = spec()
    with open(base_path) as f:
        base = json.load(f)["runs"]
    with open(new_path) as f:
        new = json.load(f)["runs"]
    regressed = False
    print(f"{'metric':18} {'workload':12} {'base':>12} {'new':>12} {'worse':>8}"
          f" {'spread':>13} {'bound':>6}  verdict")
    for w in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            a, b = values_of(base, w, m["name"]), values_of(new, w, m["name"])
            if len(a) < 2 or len(b) < 2:
                print(f"{m['name']:18} {w:12} missing runs")
                regressed = True
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            lower = m["better"] == "lower"
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            noisy = max(sa, sb) > m["bound"]
            if noisy and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressed = True
            else:
                verdict = "ok"
            print(f"{m['name']:18} {w:12} {ma:12.5g} {mb:12.5g} {worse:+8.3f}"
                  f" {sa:6.3f}/{sb:6.3f} {m['bound']:6}  {verdict}")
    return 1 if regressed else 0


def arg(argv, flag):
    i = argv.index(flag) if flag in argv else -1
    return argv[i + 1] if 0 <= i < len(argv) - 1 else None


def main(argv):
    if "--compare" in argv:
        i = argv.index("--compare")
        return compare(argv[i + 1], argv[i + 2])
    if not build():
        print("e2e: build failed", file=sys.stderr)
        return 1
    if "--sweep" in argv:
        return sweep(int(arg(argv, "--sweep")), arg(argv, "--out"))
    traced = arg(argv, "--trace") not in (None, "0")
    done = subprocess.run([EXE] + argv, preexec_fn=None if traced else pin)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
