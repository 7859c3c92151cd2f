#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that tiny sizes of all three workloads run; that every metric
BENCHMARK.json names is emitted with its unit (end-to-end metrics without
tracing, per-layer metrics with it); that the deterministic counts (answer
path tallies, sweeps, users stepped) repeat exactly across two runs of one
seed and change with the seed; and that the adoption trajectory checksum
is the same with and without tracing. Also runs the benchmark's unit
tests (the percentile guard).
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["serve", "farm", "adopt"]
OPS = {"serve": 400, "farm": 128, "adopt": 40}


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    assert names == WORKLOADS, names
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return e2e, layers


def perfbench(binary, workload, seed, trace, ops):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "60",
           "--trace", str(trace), "--ops", str(ops), "--tiny",
           "--spans", os.path.join("perfbench", "out", "selftest-spans.csv")]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, f"{cmd} exited {done.returncode}:\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    return result["metrics"], done.stderr


def check_names(metrics, expected, what):
    assert set(metrics) == set(expected), f"{what}: {sorted(set(metrics) ^ set(expected))}"
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, f"{what} {name}: {metrics[name]['unit']} != {unit}"
        assert isinstance(metrics[name]["value"], (int, float)), f"{what} {name}"


def counts(metrics, layers):
    return {n: metrics[n]["value"] for n, unit in layers.items() if unit == "count"}


def checksum(stderr):
    found = re.search(r"adopt checksum after (\d+) ticks: ([0-9a-f]+)", stderr)
    assert found, stderr
    return found.groups()


def main():
    e2e, layers = spec()
    binary = run.build()
    unit_tests = ["cargo", "test", "--release", "--offline", "--quiet",
                  "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    assert subprocess.run(unit_tests, cwd=run.ROOT, env=env).returncode == 0, "unit tests"
    for workload in WORKLOADS:
        ops = OPS[workload]
        plain, plain_err = perfbench(binary, workload, 5, 0, ops)
        check_names(plain, e2e, f"{workload} end-to-end")
        first, first_err = perfbench(binary, workload, 5, 1, ops)
        check_names(first, layers, f"{workload} per-layer")
        again, again_err = perfbench(binary, workload, 5, 1, ops)
        other, other_err = perfbench(binary, workload, 6, 1, ops)
        assert counts(first, layers) == counts(again, layers), f"{workload}: counts did not repeat"
        if workload == "adopt":
            assert checksum(plain_err) == checksum(first_err), "traced trajectory differs"
            assert checksum(first_err) == checksum(again_err)
            assert checksum(first_err) != checksum(other_err), "the seed does not move adopt"
        else:
            assert counts(first, layers) != counts(other, layers), f"{workload}: seed-blind"
        print(f"selftest {workload}: ok")
    print("selftest: all ok")


if __name__ == "__main__":
    main()
