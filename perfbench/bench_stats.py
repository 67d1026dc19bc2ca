"""Metric arithmetic for the benchmark: order statistics, the BENCHMARK.json
grammar, and the reduction of one runner run's raw samples to the
end-to-end (untraced) or per-layer (traced) metrics.

Kept free of I/O so tests/test_bench_stats.py can exercise every helper.
"""

import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}

# Latency limit per workload (ms). Solo workloads are closed loops whose
# "job" is one problem; the limits sit between the fast and slow modes
# seen at the parent commit, not on top of either.
LATENCY_LIMIT_MS = {"adaptive_128": 1000.0, "exact_128": 5000.0,
                    "serve_open_64": 1000.0}


def median(xs):
    """Median of a non-empty sequence (mean of the middle pair)."""
    s = sorted(xs)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


# A _tail keeps at least TAIL_BEYOND samples, and at least TAIL_SHARE of
# all samples, beyond it: p90 where that leaves twenty beyond, else the
# highest percentile that does. With ten beyond, as first planned, the step
# and serve tails spread 0.25-0.36 over ten seeds on a 4-vCPU VM, over the
# 0.25 bound (README.md, "Metrics").
TAIL_BEYOND = 20
TAIL_SHARE = 0.1


def tail(xs, beyond=TAIL_BEYOND, share=TAIL_SHARE):
    """Highest percentile with max(beyond, ceil(share * n)) samples above it.

    Returns (value, percentile, n): the (n - b)-th smallest sample and its
    rank as a percentile, for b = max(beyond, ceil(share * n)). With
    n <= beyond no percentile qualifies and the median is returned with
    percentile 50.
    """
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return median(s), 50.0, n
    k = n - max(beyond, math.ceil(share * n))  # 1-based rank of the tail
    return s[k - 1], 100.0 * k / n, n


def check_benchmark_json(doc):
    """Return a list of contract violations in a parsed BENCHMARK.json."""
    errs = []
    if set(doc) != TOP_KEYS:
        errs.append("top-level keys must be exactly %s" % sorted(TOP_KEYS))
        return errs
    cmd = doc["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errs.append("command: 1-32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        errs.append("command: no absolute paths and no '..'")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and
            all(isinstance(p, str) and PATH_RE.match(p) and
                not p.startswith("/") and ".." not in p.split("/")
                for p in paths)):
        errs.append("paths: 1-16 relative directory names")
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        errs.append("run_seconds: whole number 1-60")
    names = []
    wl = doc["workloads"]
    if not (isinstance(wl, list) and 2 <= len(wl) <= 8):
        errs.append("workloads: 2-8 entries")
        wl = []
    for w in wl:
        if set(w) != {"name", "why"}:
            errs.append("workload keys must be name, why")
            continue
        names.append(w["name"])
        if len(w["why"]) > 200 or "\n" in w["why"]:
            errs.append("why of %s: one line, at most 200 characters" % w["name"])
    for section, keys, lo, hi in (
            ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
            ("per_layer", {"name", "unit", "better"}, 1, 128)):
        ms = doc[section]
        if not (isinstance(ms, list) and lo <= len(ms) <= hi):
            errs.append("%s: %d-%d entries" % (section, lo, hi))
            continue
        for m in ms:
            if set(m) != keys:
                errs.append("%s entry keys must be %s" % (section, sorted(keys)))
                continue
            names.append(m["name"])
            if not UNIT_RE.match(m["unit"]):
                errs.append("bad unit %r" % m["unit"])
            if m["better"] not in ("higher", "lower"):
                errs.append("better of %s must be higher or lower" % m["name"])
            if section == "end_to_end" and not (
                    isinstance(m["bound"], (int, float)) and
                    0 < m["bound"] <= 0.25):
                errs.append("bound of %s must be in (0, 0.25]" % m["name"])
    for n in names:
        if not isinstance(n, str) or not NAME_RE.match(n):
            errs.append("bad name %r" % (n,))
    dup = sorted({n for n in names if names.count(n) > 1})
    if dup:
        errs.append("names used twice: %s" % dup)
    e2e = {m["name"]: m for m in doc["end_to_end"]} if isinstance(
        doc["end_to_end"], list) else {}
    setup = e2e.get("setup_s")
    if not setup or setup.get("unit") != "s" or setup.get("better") != "lower":
        errs.append("end_to_end needs setup_s in s, lower is better")
    return errs


def count_failures(outcomes):
    """(attempted, failed) over per-operation outcome strings."""
    outcomes = list(outcomes)
    return len(outcomes), sum(1 for o in outcomes if o != "ok")


def self_times(spans):
    """Self time per span name: duration minus the union of its children.

    `spans` holds [id, parent, job, name, t0, t1] rows. Children of one
    parent never overlap (they come from one thread's stack), so the union
    is their sum.
    """
    child = {}
    for sid, parent, _job, _name, t0, t1 in spans:
        if parent:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    out = {}
    for sid, _parent, _job, name, t0, t1 in spans:
        out[name] = out.get(name, 0.0) + (t1 - t0) - child.get(sid, 0.0)
    return out


def _durations(spans, name):
    return [(t1 - t0) for _i, _p, _j, n, t0, t1 in spans if n == name]


def _share(num, den):
    return num / den if den > 0 else 0.0


def solo_metrics(raw, trace):
    """Metrics of adaptive_128 / exact_128 from the runner's raw samples."""
    probs = raw["problems"]
    q = raw["quality_requirement"]
    limit = LATENCY_LIMIT_MS[raw["workload"]]
    attempted, failed = count_failures(p["outcome"] for p in probs)
    ok = [p for p in probs if p["outcome"] == "ok"]
    wall = sum(p["wall_s"] for p in probs)
    info = {}
    if not trace:
        steps = [s for p in probs for s in p["step_ms"]]
        lat = [p["wall_s"] * 1e3 for p in probs]
        step_tail, step_pct, step_n = tail(steps)
        # One pass has ten problems, so no percentile has TAIL_BEYOND
        # samples beyond it and the latency tail is the median (README.md).
        lat_tail, lat_pct, lat_n = tail(lat)
        info.update(step_tail_percentile=step_pct, step_tail_n=step_n,
                    latency_tail_percentile=lat_pct, latency_tail_n=lat_n,
                    latency_limit_ms=limit)
        m = {
            "setup_s": median(raw["setup_s"]),
            "cell_steps_per_s": _share(
                sum(p["cells"] * p["steps"] for p in ok), wall),
            "problem_s_p50": median([p["wall_s"] for p in probs]),
            "step_ms_p50": median(steps),
            "step_ms_tail": step_tail,
            "ok_share": 1.0 - failed / attempted,
            "serve_latency_ms_p50": median(lat),
            "serve_latency_ms_tail": lat_tail,
            "serve_goodput": sum(1 for p in ok if p["wall_s"] * 1e3 <= limit)
                             / attempted,
            "serve_jobs_per_s": _share(len(ok), wall),
        }
        return m, attempted, failed, info

    adaptive = raw["workload"] == "adaptive_128"
    spans = raw["spans"]
    selft = self_times(spans)
    info["self_s"] = selft
    solve_s = sum(p["solve_s"] for p in probs)
    solves = sum(p["pcg_solves"] for p in probs)
    checked = [p for p in ok if p["qloss"] >= 0]
    m = {k: 0.0 for k in PER_LAYER}
    if adaptive:
        proj = _durations(spans, "nn.projection")
        fwd = _durations(spans, "nn.forward")
        # Surrogate steps: core.step spans with an nn.projection child.
        proj_by_parent = {}
        for _i, parent, _j, n, t0, t1 in spans:
            if n == "nn.projection":
                proj_by_parent[parent] = proj_by_parent.get(parent, 0.0) + t1 - t0
        nonsolve = [(t1 - t0) - proj_by_parent[i]
                    for i, _p, _j, n, t0, t1 in spans
                    if n == "core.step" and i in proj_by_parent]
        result_s = sum(p["result_s"] for p in ok)
        unrestarted = [p for p in checked if not p["restarted"]]
        m.update({
            "fluid.pcg.iterations_per_solve": _share(
                raw["pcg_counter_iterations"], raw["pcg_counter_solves"]),
            "fluid.pcg.time_share": _share(sum(p["pcg_s"] for p in ok), wall),
            "fluid.sim.nonsolve_ms_per_step":
                1e3 * sum(nonsolve) / len(nonsolve) if nonsolve else 0.0,
            "nn.infer_ms_p50": 1e3 * median(fwd) if fwd else 0.0,
            "nn.time_share": _share(sum(proj), wall),
            "nn.gflops_computed": _share(raw["nn_flops"], sum(fwd)) / 1e9,
            "runtime.restart_share":
                sum(1 for p in ok if p["restarted"]) / max(1, len(ok)),
            "runtime.useful_step_ratio": _share(
                sum(p["steps"] for p in ok),
                sum(p["steps_executed"] for p in ok)),
            "runtime.pcg_time_share": _share(
                sum(p["pcg_s"] for p in ok), result_s),
            "runtime.switches_per_problem":
                sum(p["switches"] for p in ok) / max(1, len(ok)),
            "runtime.fallback_steps": float(sum(p["fallback_steps"] for p in ok)),
            "runtime.unrestarted_quality_misses":
                float(sum(1 for p in unrestarted if p["qloss"] > q)),
        })
    else:
        pcg = _durations(spans, "fluid.pcg.solve")
        step_s = sum(s for p in probs for s in p["step_ms"]) / 1e3
        m.update({
            "fluid.pcg.solve_ms_p50": 1e3 * median(pcg) if pcg else 0.0,
            "fluid.pcg.iterations_per_solve": _share(
                sum(p["pcg_iterations"] for p in probs), solves),
            "fluid.pcg.time_share": _share(solve_s, wall),
            "fluid.pcg.gflops_est": _share(
                sum(p["solve_flops"] for p in probs), solve_s) / 1e9,
            "fluid.sim.nonsolve_ms_per_step": _share(
                1e3 * (step_s - solve_s), solves),
        })
    m.update(_check_metrics([p["qloss"] for p in checked], q, attempted,
                            failed))
    m["trace.overhead_share"] = _share(len(spans) * raw["span_cost_s"], wall)
    return m, attempted, failed, info


def _check_metrics(ql, q, attempted, failed):
    """Output-check figures: Qloss sample `ql` against requirement q."""
    return {
        "check.success_rate": _share(sum(1 for v in ql if v <= q), len(ql)),
        "check.qloss_mean": _share(sum(ql), len(ql)),
        "check.failed_share": _share(failed, attempted),
    }


def serve_metrics(raw, trace):
    """Metrics of serve_open_64 from the runner's raw samples.

    Latency, job time and goodput are taken over fresh jobs (first
    submissions of a scene) only: repeats are mostly cache hits, and their
    share is an assumption of the traffic mix, not a measurement.
    """
    jobs = raw["jobs"]
    limit = LATENCY_LIMIT_MS[raw["workload"]]
    attempted, failed = count_failures(j["outcome"] for j in jobs)
    ok = [j for j in jobs if j["outcome"] == "ok"]
    fresh = [j for j in ok if not j["repeat"]]
    offered_fresh = sum(1 for j in jobs if not j["repeat"])
    end = raw["elapsed_s"]  # schedule start to the last wait() return
    cells_steps = raw["cells"] * raw["steps"]
    info = {"latency_limit_ms": limit, "offered": attempted,
            "offered_fresh": offered_fresh, "rate_per_s": raw["rate_per_s"],
            "repeat_share": raw["repeat_share"],
            "cache_entries": raw["cache_entries"]}
    if not trace:
        lat = [(j["done"] - j["due"]) * 1e3 for j in fresh]
        step = [j["result_s"] * 1e3 / raw["steps"] for j in fresh]
        lat_tail, lat_pct, lat_n = tail(lat)
        step_tail, step_pct, step_n = tail(step)
        info.update(latency_tail_percentile=lat_pct, latency_tail_n=lat_n,
                    step_tail_percentile=step_pct, step_tail_n=step_n)
        m = {
            "setup_s": median(raw["setup_s"]),
            "cell_steps_per_s": len(fresh) * cells_steps / end,
            "problem_s_p50": median([j["result_s"] for j in fresh]),
            "step_ms_p50": median(step),
            "step_ms_tail": step_tail,
            "ok_share": 1.0 - failed / attempted,
            "serve_latency_ms_p50": median(lat),
            "serve_latency_ms_tail": lat_tail,
            "serve_goodput": sum(1 for v in lat if v <= limit) / offered_fresh,
            "serve_jobs_per_s": len(ok) / end,
        }
        return m, attempted, failed, info

    spans = raw["spans"]
    info["self_s"] = self_times(spans)
    accepted = sum(1 for j in jobs if j["outcome"] != "rejected")
    repeat_lat = [(j["done"] - j["due"]) * 1e3 for j in ok if j["repeat"]]
    fresh_result_s = sum(j["result_s"] for j in fresh)
    m = {k: 0.0 for k in PER_LAYER}
    m.update({
        "nn.infer_ms_p50": 1e3 * _share(raw["dispatch_s"], raw["dispatch_count"]),
        "nn.time_share": _share(raw["dispatch_s"], fresh_result_s),
        "nn.gflops_computed": _share(
            raw["nn_flops_per_request_mean"] * raw["requests_batched"],
            raw["dispatch_s"]) / 1e9,
        "serve.overhead_ms_p50": median(
            [(j["done"] - j["due"] - j["result_s"]) * 1e3 for j in fresh]),
        "serve.batch_mean": _share(raw["requests_batched"], raw["batches"]),
        "serve.cache_hit_share": _share(raw["cache_hits"], accepted),
        "serve.repeat_latency_ms_p50": median(repeat_lat) if repeat_lat else 0.0,
        "serve.rejected_share": _share(
            sum(1 for j in jobs if j["outcome"] == "rejected"), attempted),
        "serve.degraded_share": _share(raw["degraded"], accepted),
        "serve.active_sessions_max": float(raw["active_sessions_max"]),
        "serve.submit_us_p50": median([j["submit_us"] for j in jobs]),
        "loadgen.lateness_ms_max": raw["lateness_ms_max"],
    })
    m.update(_check_metrics(raw["qloss"], raw["quality_requirement"],
                            attempted, failed))
    m["trace.overhead_share"] = _share(len(spans) * raw["span_cost_s"], end)
    return m, attempted, failed, info


PER_LAYER = [
    "fluid.pcg.solve_ms_p50", "fluid.pcg.iterations_per_solve",
    "fluid.pcg.time_share", "fluid.pcg.gflops_est",
    "fluid.sim.nonsolve_ms_per_step",
    "nn.infer_ms_p50", "nn.time_share", "nn.gflops_computed",
    "runtime.restart_share", "runtime.useful_step_ratio",
    "runtime.pcg_time_share", "runtime.switches_per_problem",
    "runtime.fallback_steps", "runtime.unrestarted_quality_misses",
    "serve.overhead_ms_p50", "serve.batch_mean", "serve.cache_hit_share",
    "serve.repeat_latency_ms_p50",
    "serve.rejected_share", "serve.degraded_share",
    "serve.active_sessions_max", "serve.submit_us_p50",
    "loadgen.lateness_ms_max", "check.success_rate", "check.qloss_mean",
    "check.failed_share", "trace.overhead_share",
]


def metrics(raw, trace):
    """(metrics, attempted, failed, info) for any workload's raw samples."""
    if raw["workload"] == "serve_open_64":
        return serve_metrics(raw, trace)
    return solo_metrics(raw, trace)
