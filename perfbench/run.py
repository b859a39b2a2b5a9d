#!/usr/bin/env python3
"""Builds and runs the ActiveDP benchmark.

    python3 perfbench/run.py --workload step-text --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The driver (perfbench/driver.cc) and the
activedp library (src/) are built with CMake into $CARGO_TARGET_DIR (default
.bench_build)/perfbench. Workload parameters come from perfbench/spec.json.

One run is one driver process. It repeats every timed unit of work far apart
in time and keeps the best of the repeats, and it checks that repeats with
the same seed produce the same digests (see driver.cc).

BENCHMARK.json is the one list of metric names: the result carries exactly
its end_to_end metrics (--trace 0) or per_layer metrics (--trace 1), in its
order and units, and spec.json's layer map names exactly its per_layer
metrics. A per-layer metric of a layer the workload does not run reads 0;
any other difference is an error.

The driver's "#" report lines are passed through; the last stdout line is
the result JSON. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
                   check=True, stdout=sys.stderr)
    return build_dir


def run_driver(cmd):
    """Runs the driver; returns its result JSON after passing its report on."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stderr.write("perfbench: driver exited %d\n" % proc.returncode)
        if lines:
            sys.stderr.write(lines[-1] + "\n")
        sys.exit(proc.returncode or 1)
    return json.loads(lines[-1])


def load_lists(spec):
    """Returns BENCHMARK.json's {"end_to_end"|"per_layer": [(name, unit)]},
    after checking that the spec's layer map names the per_layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    lists = {key: [(m["name"], m["unit"]) for m in bench[key]]
             for key in ("end_to_end", "per_layer")}
    mapped = [entry["metric"] for entry in spec["layer_map"]]
    listed = [name for name, _ in lists["per_layer"]]
    if sorted(mapped) != sorted(listed):
        sys.exit("perfbench: spec.json layer_map and BENCHMARK.json per_layer "
                 "differ: %s" % sorted(set(mapped) ^ set(listed)))
    return lists


def conform(metrics, expected, fill_missing):
    """The metrics in BENCHMARK.json's order; exits on a name or unit that
    does not match. Missing names read 0 when `fill_missing`."""
    extra = sorted(set(metrics) - {name for name, _ in expected})
    if extra:
        sys.exit("perfbench: metrics not in BENCHMARK.json: %s" % extra)
    out = {}
    for name, unit in expected:
        if name not in metrics:
            if not fill_missing:
                sys.exit("perfbench: the driver did not report %s" % name)
            out[name] = {"value": 0.0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            sys.exit("perfbench: %s is in %s, BENCHMARK.json says %s"
                     % (name, metrics[name]["unit"], unit))
        else:
            out[name] = metrics[name]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's arithmetic tests")
    args = parser.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    lists = load_lists(spec)
    if args.selftest:
        build_dir = build(["adp_perfbench_test"])
        return subprocess.run([os.path.join(build_dir, "adp_perfbench_test")]).returncode

    workloads = spec["workloads"]
    if args.workload not in workloads:
        sys.exit("perfbench: unknown workload %r (have %s)"
                 % (args.workload, ", ".join(sorted(workloads))))
    build_dir = build(["adp_perfbench"])
    cmd = [os.path.join(build_dir, "adp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for key, value in workloads[args.workload]["params"].items():
        cmd += ["--" + key, str(value)]
    result = run_driver(cmd)
    result["metrics"] = conform(
        result["metrics"], lists["per_layer" if args.trace else "end_to_end"],
        fill_missing=bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
