#!/usr/bin/env python3
"""Repository benchmark: build the program, run one workload, print metrics.

    python3 perfbench/run.py --workload adaptive_128 --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is built from source with the
repository's own CMake project into .bench_build/ (or $CARGO_TARGET_DIR),
then perfbench/CMakeLists.txt links the runner against those libraries.
The runner writes raw samples; bench_stats.py reduces them. The last line
of stdout is one JSON object with correct/attempted/failed/metrics:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import bench_stats  # noqa: E402

# The measured run alone; a first run also builds, which may take longer.
RUNNER_TIMEOUT_S = 160
LIB_TARGETS = ["sfn_serve"]  # depends on every library the runner links


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def sh(cmd, **kw):
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True, **kw)
    if res.returncode != 0:
        sys.stderr.write(res.stdout[-4000:])
        raise RuntimeError("command failed (%d): %s" % (res.returncode,
                                                        " ".join(cmd)))
    return res.stdout


def build(build_root):
    """Build the repository libraries, then the runner against them."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("no repository sources next to perfbench/ "
                           "(expected CMakeLists.txt and src/ in %s)" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    lib_dir = os.path.join(build_root, "sfn")
    runner_dir = os.path.join(build_root, "runner")
    if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", lib_dir, "-j", jobs, "--target"] + LIB_TARGETS)
    sh(["cmake", "-S", HERE, "-B", runner_dir, "-DCMAKE_BUILD_TYPE=Release",
        "-DSFN_BUILD_DIR=" + lib_dir])
    sh(["cmake", "--build", runner_dir, "-j", jobs, "--target", "perfbench_runner"])
    return os.path.join(runner_dir, "perfbench_runner")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errs = bench_stats.check_benchmark_json(spec)
    if errs:
        raise RuntimeError("BENCHMARK.json: " + "; ".join(errs))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise RuntimeError("unknown workload " + args.workload)

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    runner = build(build_root)
    runs = os.path.join(build_root, "runs")
    os.makedirs(runs, exist_ok=True)
    raw_path = os.path.join(runs, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    cmd = [runner, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--artifacts", os.path.join(HERE, "artifacts"), "--out", raw_path]
    env = dict(os.environ)
    if args.workload == "serve_open_64":
        # One OpenMP thread per session worker. Under the default thread
        # environment every session worker starts its own OpenMP team, and
        # identical serve runs then differ by up to 20x in latency; no
        # bound could hold that. See README.md, "Known defect".
        env["OMP_NUM_THREADS"] = "1"
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True, timeout=RUNNER_TIMEOUT_S, env=env)
    if res.returncode != 0:
        sys.stderr.write(res.stdout[-4000:])
        raise RuntimeError("runner exited with %d" % res.returncode)
    with open(raw_path) as f:
        raw = json.load(f)

    values, attempted, failed, info = bench_stats.metrics(raw, args.trace == 1)
    section = "per_layer" if args.trace else "end_to_end"
    out = {}
    for m in spec[section]:
        if m["name"] not in values:
            raise RuntimeError("workload produced no value for " + m["name"])
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    # Output checks: served/restarted results bit-identical to their solo
    # or PCG counterparts, and every exact_128 solve converged.
    outcomes = {p["outcome"] for p in raw.get("problems", raw.get("jobs"))}
    correct = attempted >= 1 and not {"mismatch", "not_converged"} & outcomes
    info.update(artifact_hash=raw["artifact_hash"], seed=raw["seed"],
                hardware_threads=raw["hardware_threads"],
                quality_requirement=raw["quality_requirement"],
                selected_models=raw["selected_models"],
                bit_checked=raw["bit_checked"], bit_mismatch=raw["bit_mismatch"],
                refs_cached=raw.get("refs_cached", 0),
                setup_samples_s=raw["setup_s"])
    print("# " + json.dumps({"workload": args.workload, "info": info},
                            sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # no result line on any set-up or run failure
        log("error: %s" % e)
        sys.exit(2)
