#!/usr/bin/env python3
"""Checks run.py's comparison rule and the benchmark's metric catalogue.

    python3 bench/perf/selfcheck.py

Needs no build. Checks that `verdict` gives the expected answer on small
cases, and that BENCHMARK.json, run.py, moves.json and the layer table in
README.md name the same workloads, layers and metrics. Exit 0 when all
checks pass, 1 otherwise.
"""
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

failures = []


def expect(what, got, want):
    if got != want:
        failures.append(f"{what}: got {got!r}, want {want!r}")


def check_verdict():
    lower, higher = True, False
    # A wide spread: beating the base's slowest run is not enough.
    expect("wide, beats only the worst base run",
           run.verdict([1.0, 2.0], [1.5, 1.5], 0.1, 0.0, lower), "unresolved")
    expect("wide, beats every base run",
           run.verdict([1.0, 2.0], [0.9, 0.95], 0.1, 0.0, lower), "better")
    expect("wide, higher is better, beats only the worst base run",
           run.verdict([1.0, 2.0], [1.5, 1.5], 0.1, 0.0, higher),
           "unresolved")
    expect("wide, higher is better, beats every base run",
           run.verdict([1.0, 2.0], [2.1, 2.2], 0.1, 0.0, higher), "better")
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    expect("steady, same", run.verdict(steady, steady, 0.1, 0.0, lower),
           "unchanged")
    expect("steady, 20% slower",
           run.verdict(steady, [v * 1.2 for v in steady], 0.1, 0.0, lower),
           "worse")
    expect("steady, 20% faster",
           run.verdict(steady, [v * 0.8 for v in steady], 0.1, 0.0, lower),
           "better")
    expect("steady, 20% less throughput",
           run.verdict(steady, [v * 0.8 for v in steady], 0.1, 0.0, higher),
           "worse")
    # Microseconds against a 1 ms floor: noise, and even a 50% change, is
    # below the floor.
    tiny = [3e-6, 4e-6, 3e-6, 5e-6, 3e-6]
    expect("tiny, below the floor",
           run.verdict(tiny, [v * 1.5 for v in tiny], 0.1, 1e-3, lower),
           "unchanged")
    expect("tiny, past the floor",
           run.verdict(tiny, [v + 2e-3 for v in tiny], 0.1, 1e-3, lower),
           "worse")


def readme_moves():
    """The layer table of README.md as {layer: {workload: [metrics]}}."""
    table = {}
    text = (HERE / "README.md").read_text()
    header = "| layer | counters | should move |"
    section = text.split(header, 1)[1].split("\n\n", 1)[0]
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        head = re.fullmatch(r"`(\w+)`", cells[0])
        if len(cells) != 3 or not head:
            continue
        table[head.group(1)] = {
            workload: re.findall(r"`(\w+)`", metrics)
            for workload, metrics in re.findall(r"`(\w+)`: ([^;]+)",
                                                cells[2])}
    return table


def check_catalogue():
    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    moves = run.load_moves()
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    expect("run.py WORKLOADS", run.WORKLOADS, workloads)
    expect("ABS_FLOOR names outside end_to_end",
           sorted(set(run.ABS_FLOOR) - end_to_end), [])
    layers = {m["name"].split(".")[0] for m in bench["per_layer"]}
    expect("layers of per_layer metrics", sorted(layers), sorted(moves))
    for layer, targets in moves.items():
        expect(f"moves.json {layer}: unknown workloads",
               sorted(set(targets) - set(workloads)), [])
        for workload, metrics in targets.items():
            expect(f"moves.json {layer} {workload}: unknown metrics",
                   sorted(set(metrics) - end_to_end), [])
    expect("README.md layer table", readme_moves(), moves)


def main():
    check_verdict()
    check_catalogue()
    for f in failures:
        print(f"selfcheck: {f}", file=sys.stderr)
    print(f"selfcheck: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
