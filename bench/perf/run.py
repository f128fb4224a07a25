#!/usr/bin/env python3
"""Builds gpumas-perf and runs, sweeps or compares the repository benchmark.

One workload (what BENCHMARK.json's command runs):
    python3 bench/perf/run.py --workload NAME [--seed N] [--seconds S]
                              [--trace 0|1]
  Builds bench/perf into build-perf/ (Release) if needed, then runs the
  workload in a child process; its last stdout line is the JSON result.

Every workload, plain and traced, each in its own process:
    python3 bench/perf/run.py --all [--seed N] [--seconds S] [--save FILE]
  Prints every end-to-end and per-layer metric by name with its unit, and
  saves them (with the simulated model.* outputs and a machine
  description) as one JSON file.

Compare saved --all runs of two commits:
    python3 bench/perf/run.py --compare BASE.json... -- NEW.json...
  For each workload and end-to-end metric: each side's median and
  quartiles, and a verdict from the share in BENCHMARK.json and the floor
  in ABS_FLOOR. A metric whose quartile distance exceeds that tolerance is
  unresolved unless every new run beats every base run. Per-layer medians
  are listed with the end-to-end metrics moves.json says they should move.
  Exit 1 if any is worse.

Exit codes: 0 ok; 1 a check failed, a workload failed or a comparison is
worse; 2 usage error; 3 the build failed.
"""
import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-perf"
BINARY = BUILD / "gpumas-perf"
WORKLOADS = ["grid2_cold", "grid2_warm", "sim_pairs", "smra3_latency"]
# The absolute part of each end-to-end bound: --compare allows a median to
# move by max(bound * base median, floor). BENCHMARK.json holds the shares.
ABS_FLOOR = {"wall_s": 1e-3, "cpu_s": 5e-3, "setup_s": 1e-3}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def call(cmd, stdout=None):
    """Runs cmd to completion; returns (exit code, captured stdout or None).

    The child never outlives this process: if this process is interrupted
    or terminated while waiting, the child is killed and reaped first.
    """
    with subprocess.Popen(cmd, stdout=stdout, text=True) as proc:
        try:
            out, _ = proc.communicate()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return proc.returncode, out


def build():
    """Configures (once) and builds the benchmark; build output to stderr."""
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if call(cmd, stdout=sys.stderr)[0] != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD), "--target", "gpumas-perf",
           "-j", str(os.cpu_count() or 1)]
    return call(cmd, stdout=sys.stderr)[0] == 0


def run_workload(name, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None, model)."""
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    code, out = call(cmd, stdout=subprocess.PIPE)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    model = {}
    for line in lines[:-1]:
        key, sep, value = line.partition(" = ")
        if sep and key.startswith("model."):
            model[key] = value
    return code, result, model


def machine():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = call([compiler, "--version"], stdout=subprocess.PIPE)[1]
    version = version.splitlines()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": version[0] if version else compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


def run_all(seed, seconds, save):
    report = {"seed": seed, "seconds": seconds, "machine": machine(),
              "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = {"attempted": 0, "failed": 0, "model": {}}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, model = run_workload(name, seed, seconds, trace)
            if result is None:
                log(f"{name} --trace {trace}: no result (exit {code})")
                ok = False
                continue
            ok = ok and code == 0 and result["correct"]
            entry[key] = result["metrics"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["model"].update(model)
        report["workloads"][name] = entry
        print(f"== {name} (seed {seed}): {entry['failed']} of "
              f"{entry['attempted']} operations failed")
        for key in ("end_to_end", "per_layer"):
            for metric, m in entry.get(key, {}).items():
                print(f"  {metric:40s} {m['value']:>20.6g} {m['unit']}")
        sys.stdout.flush()
    if save:
        Path(save).write_text(json.dumps(report, indent=1) + "\n")
        log(f"saved {save}")
    return 0 if ok else 1


def load_moves():
    """moves.json: layer -> {workload: [end-to-end metrics it should move]}.

    A per-layer metric's layer is its name up to the first dot.
    """
    return json.loads((HERE / "moves.json").read_text())


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, bound, floor, lower_is_better):
    """better / worse / unchanged / unresolved for two lists of runs.

    The tolerance is max(bound * base median, floor). A side whose quartile
    distance exceeds its own tolerance makes the medians meaningless: then
    the change is better only if every new run beats the best base run, and
    unresolved otherwise. Else the medians decide.
    """
    def gain(a, b):  # improvement of b over a, in a's units
        return a - b if lower_is_better else b - a
    bq, nq = quartiles(base), quartiles(new)
    if any(q[2] - q[0] > max(bound * q[1], floor) for q in (bq, nq)):
        best = min(base) if lower_is_better else max(base)
        every_new_better = all(gain(best, v) > 0 for v in new)
        return "better" if every_new_better else "unresolved"
    change = gain(bq[1], nq[1])
    tolerance = max(bound * bq[1], floor)
    if change < -tolerance:
        return "worse"
    if change > tolerance:
        return "better"
    return "unchanged"


def compare(base_paths, new_paths):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    moves = load_moves()
    base = [json.loads(Path(p).read_text()) for p in base_paths]
    new = [json.loads(Path(p).read_text()) for p in new_paths]
    worse = 0

    def values(runs, workload, key, metric):
        return [r["workloads"][workload][key][metric]["value"] for r in runs
                if metric in r["workloads"].get(workload, {}).get(key, {})]

    print(f"base: {len(base)} runs, new: {len(new)} runs")
    print(f"{'workload':14s} {'metric':28s} {'base q1/median/q3':>32s} "
          f"{'new q1/median/q3':>32s}  verdict")
    for workload in WORKLOADS:
        rows = [(m["name"], m["bound"], m["better"] == "lower")
                for m in bench["end_to_end"]]
        for name, bound, lower in rows:
            b = values(base, workload, "end_to_end", name)
            n = values(new, workload, "end_to_end", name)
            if not b or not n:
                continue
            v = verdict(b, n, bound, ABS_FLOOR.get(name, 0.0), lower)
            worse += v == "worse"
            fmt = "{:10.4g} {:10.4g} {:10.4g}"
            print(f"{workload:14s} {name:28s} {fmt.format(*quartiles(b)):>32s} "
                  f"{fmt.format(*quartiles(n)):>32s}  {v}")
        frac = []
        for runs in (base, new):
            attempted = sum(r["workloads"][workload]["attempted"] for r in runs)
            failed = sum(r["workloads"][workload]["failed"] for r in runs)
            frac.append(failed / attempted if attempted else 1.0)
        v = "worse" if frac[1] > frac[0] else "unchanged"
        worse += v == "worse"
        print(f"{workload:14s} {'failed_frac':28s} {frac[0]:>32.4g} "
              f"{frac[1]:>32.4g}  {v}")
        for m in bench["per_layer"]:
            b = values(base, workload, "per_layer", m["name"])
            n = values(new, workload, "per_layer", m["name"])
            if b and n and (statistics.median(b) or statistics.median(n)):
                layer = m["name"].split(".")[0]
                should = ", ".join(moves[layer].get(workload, [])) or "-"
                print(f"{workload:14s}   {m['name']:40s} "
                      f"{statistics.median(b):>12.6g} -> "
                      f"{statistics.median(n):>12.6g} {m['unit']:9s} "
                      f"moves: {should}")
        models = [{json.dumps(r["workloads"][workload]["model"],
                              sort_keys=True) for r in runs}
                  for runs in (base, new)]
        same = len(models[0] | models[1]) == 1
        print(f"{workload:14s} model.* outputs "
              f"{'identical' if same else 'DIFFER'} across all runs")
    return 1 if worse else 0


def main(argv):
    if "--compare" in argv:
        rest = argv[argv.index("--compare") + 1:]
        if "--" not in rest:
            log("usage: run.py --compare BASE.json... -- NEW.json...")
            return 2
        split = rest.index("--")
        if split == 0 or split == len(rest) - 1:
            log("--compare needs at least one file on each side of --")
            return 2
        return compare(rest[:split], rest[split + 1:])

    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--save")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", default="5")
    args, rest = parser.parse_known_args(argv)
    if not args.all and not rest:
        log(__doc__)
        return 2
    if not build():
        log("run.py: building gpumas-perf failed")
        return 3
    if args.all:
        return run_all(args.seed, args.seconds, args.save)
    cmd = [str(BINARY), "--seed", args.seed, "--seconds", args.seconds]
    return call(cmd + rest)[0]


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so call() stops the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
