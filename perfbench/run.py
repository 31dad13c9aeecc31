"""bellmanlab benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement is taken in a fresh
interpreter (child.py) that imports bellmanlab from the checkout's ``src/``
and makes one ``cli.main([...])`` suite call; the harness itself never
imports bellmanlab.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics: set-up (import) time, and the
median wall time, CPU time and peak RSS of the workload process over the
repetitions that fit in --seconds, with its check counts.

--trace 1 reports the per-layer metrics: the same untraced repetitions, one
traced repetition (spans on every layer, draw and FFT counters), every
experiment of the workload again in its own child process (wall time, peak
RSS, counts), and the kernel probes.

Every report passes the correctness gate: exit code 0 or 1 and consistent
with the checks, JSON that parses, and a list of check ids equal to the
workload's expected list.  All reports of one invocation must carry the
same entries, whether traced, untraced or split by experiment.
An operation is one ``cli.main`` suite call; it fails when its report breaks
the gate.  A red check (known-red or seed-dependent) is the program's
verdict, not a broken call: it is reported as ``checks_failed`` (and in the
summary line), and it neither fails the call nor makes the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
EXPECTED = json.loads((HERE / "expected_checks.json").read_text())

STOCHASTIC = ("stoch-core", "stoch-conditioning", "stoch-constants")
# suite.EXPERIMENTS, spelled out because the harness never imports bellmanlab
EXPERIMENTS = ("bellman-feasibility", "bellman-jn", "bellman-tau-interp",
               "bellman-zigzag", "dyadic", "laminate", "planar-ap",
               "planar-ascent", "planar-identity113", "planar-spectral",
               "qc", "stoch-conditioning", "stoch-constants", "stoch-core")
# workload -> (tier, workers, skipped experiments, expected check ids)
WORKLOADS = {
    "fast-serial": ("fast", 1, (), EXPECTED["fast"]),
    "full-deterministic": ("full", 1, STOCHASTIC, EXPECTED["full-deterministic"]),
    "fast-parallel": ("fast", 2, (), EXPECTED["fast"]),
}
COMPUTE_LAYERS = ("dyadic", "bellman", "planar", "laminate", "stochastic", "qcmaps")
HOT_FUNCTIONS = (
    "stochastic.riemann_gap_demo", "stochastic.ito_integral",
    "stochastic.terminal_gap_sweep", "stochastic.transform_residuals",
    "stochastic.ab_by_conditioning", "stochastic.subordination_constants_mc",
    "dyadic.weighted_mt_ratio", "dyadic.martingale_transform",
    "bellman.linear_majorant_feasibility",
    "planar.norm_ratio_ascent", "planar.apply_multiplier", "planar.ap_class",
    "planar.ap_heat", "planar.identity_1_13_check",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. no bellmanlab source)."""


def suite_argv(workload: str, seed: int, skip=None) -> list:
    tier, workers, default_skip, _ = WORKLOADS[workload]
    skip = default_skip if skip is None else skip
    argv = ["suite", tier, "--seed", str(seed), "--workers", str(workers),
            "--format", "json"]
    return argv + ["--skip", ",".join(sorted(skip))] if skip else argv


def run_child(job: str, argv=()) -> dict:
    """Run child.py to completion.  Returns its JSON payload (None if it
    failed) with the process's exit status, CPU time and peak RSS."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    begun = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), job, str(SRC), *argv],
                            cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        # wait4 rather than wait: it yields this child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    elapsed = time.perf_counter() - begun
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    payload = None
    if proc.returncode == 0 and out.strip():
        payload = json.loads(out.splitlines()[-1])
    return {
        "payload": payload,
        # the cli.main call alone; the whole process if it died first
        "wall_s": payload["wall_s"] if payload and "wall_s" in payload else elapsed,
        # CPU of the child and every descendant it waited for
        "cpu_s": (after.ru_utime + after.ru_stime)
                 - (before.ru_utime + before.ru_stime),
        # ru_maxrss is a maximum over processes, not a sum; kilobytes on Linux
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def gate(payload, expected) -> dict | None:
    """The report's entries if it passes the correctness gate, else None."""
    if payload is None or payload["exit"] not in (0, 1):
        return None
    try:
        report = json.loads(payload["report"])
        entries = report["entries"]
        ids = sorted(e["check_id"] for e in entries)
        all_passed = all(e["passed"] for e in entries)
    except (ValueError, KeyError, TypeError):
        return None
    if expected is not None and ids != list(expected):
        return None
    if (payload["exit"] == 0) != all_passed:
        return None
    return entries


def run_workload(workload: str, seed: int, job: str = "run") -> dict:
    expected = WORKLOADS[workload][3]
    res = run_child(job, suite_argv(workload, seed))
    entries = gate(res["payload"], expected)
    res["entries"] = entries
    res["ok"] = entries is not None
    res["total"] = len(expected)
    # a broken report counts every expected check as not passed
    res["red"] = (sum(not e["passed"] for e in entries) if res["ok"]
                  else len(expected))
    return res


def import_time() -> float:
    """One bare import in a fresh interpreter; also proves that the
    checkout's source is importable before any workload runs."""
    res = run_child("import")
    if res["payload"] is None:
        raise BenchError("cannot import bellmanlab from " + str(SRC))
    return res["payload"]["import_s"]


def measure(workload: str, seed: int, seconds: float) -> list:
    """Untraced repetitions of the workload, at least one, for `seconds`."""
    reps = []
    begun = time.perf_counter()
    while not reps or time.perf_counter() - begun < seconds:
        reps.append(run_workload(workload, seed))
    return reps


def same_results(runs) -> bool:
    """All gated runs carry identical entries (the canonical payload less
    its config echo, which names the skipped experiments)."""
    entries = [r["entries"] for r in runs]
    return all(e is not None and e == entries[0] for e in entries)


def metric(name: str, value) -> tuple:
    if name.endswith("per_s"):
        unit = "1/s"
    elif name.endswith("_s"):
        unit = "s"
    elif name.endswith("_mb"):
        unit = "MB"
    else:
        unit = "count"
    return name, {"value": value, "unit": unit}


def end_to_end(reps: list, bare_import_s: float) -> dict:
    """Medians over the repetitions.  Set-up samples are the bare import
    and the import that opens every workload process."""
    med = lambda key: statistics.median(r[key] for r in reps)
    setup = [bare_import_s] + [r["payload"]["import_s"] for r in reps if r["payload"]]
    return dict([
        metric("setup_s", statistics.median(setup)),
        metric("wall_s", med("wall_s")),
        metric("cpu_s", med("cpu_s")),
        metric("peak_rss_mb", med("peak_rss_mb")),
        metric("checks_total", statistics.median_low(r["total"] for r in reps)),
        metric("checks_passed",
               statistics.median_low(r["total"] - r["red"] for r in reps)),
    ])


def checks_failed(reps: list) -> tuple:
    return metric("checks_failed", statistics.median_low(r["red"] for r in reps))


def per_layer(workload: str, seed: int, reps: list) -> tuple:
    """Traced run, per-experiment runs and probes.  Returns the metrics,
    the traced run, the per-experiment runs, and whether these reproduce
    the traced run's entries and counts exactly."""
    traced = run_workload(workload, seed, job="trace")
    payload = traced["payload"] or {}
    summary = tracing.summarize(payload.get("spans", []))
    counts = payload.get("counts", {})
    calls, self_s = summary["calls"], summary["self_s"]

    def layer_total(table, layer):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

    out = [checks_failed(reps)]
    for layer in COMPUTE_LAYERS:
        out.append(metric(f"{layer}.calls", layer_total(calls, layer)))
        out.append(metric(f"{layer}.self_s", layer_total(self_s, layer)))
    for layer in ("suite", "reporting", "cli"):
        out.append(metric(f"{layer}.self_s", layer_total(self_s, layer)))
    for fn in HOT_FUNCTIONS:
        out.append(metric(f"{fn}.calls", calls.get(fn, 0)))
        out.append(metric(f"{fn}.self_s", self_s.get(fn, 0.0)))
    out.append(metric("suite.busy_s", summary["busy_s"]))
    out.append(metric("suite.wait_s", summary["wait_s"]))
    for key in ("normals_drawn", "fft2_calls", "fft2_points"):
        layer = "stochastic" if key == "normals_drawn" else "planar"
        out.append(metric(f"{layer}.{key}", counts.get(key, 0)))

    # each experiment alone in a fresh process, so ru_maxrss is its own
    skipped = WORKLOADS[workload][2]
    split_runs, split_counts, split_entries = [], {}, []
    for exp in EXPERIMENTS:
        wall = rss = 0.0
        if exp not in skipped:
            res = run_child("count", suite_argv(
                workload, seed, skip=[e for e in EXPERIMENTS if e != exp]))
            res["entries"] = gate(res["payload"], None)
            res["ok"] = res["entries"] is not None
            split_runs.append(res)
            if res["entries"] is not None:
                wall = res["wall_s"]
                rss = res["peak_rss_mb"]
                split_entries += res["entries"]
                for k, v in res["payload"]["counts"].items():
                    split_counts[k] = split_counts.get(k, 0) + v
        out.append(metric(f"suite.{exp}.wall_s", wall))
        out.append(metric(f"suite.{exp}.peak_rss_mb", rss))

    probe = run_child("probe")["payload"]
    if probe is None:
        raise BenchError("kernel probes failed")
    out += [metric(k, v) for k, v in probe.items()]

    untraced = statistics.median(r["wall_s"] for r in reps)
    out.append(metric("trace.overhead_s", traced["wall_s"] - untraced))

    split_entries.sort(key=lambda e: (e["check_id"], e["detail"]))
    split_ok = (all(r["ok"] for r in split_runs)
                and traced["ok"] and split_entries == traced["entries"])
    counts_repeat = bool(counts) and split_counts == counts
    return dict(out), traced, split_runs, split_ok and counts_repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bare_import_s = import_time()
        reps = measure(args.workload, args.seed, args.seconds)
        if args.trace:
            metrics, traced, split_runs, consistent = per_layer(
                args.workload, args.seed, reps)
            whole = reps + [traced]
        else:
            metrics, consistent = end_to_end(reps, bare_import_s), True
            whole, split_runs = reps, []
            summary = {**metrics, "checks_failed": checks_failed(reps)[1]}
            print(f"{args.workload} seed {args.seed}, {len(reps)} calls: " + ", ".join(
                f"{k} {m['value']:.4g} {m['unit']}" for k, m in summary.items()))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    # every cli.main call is one operation; it fails when its report breaks the gate
    runs = whole + split_runs
    correct = consistent and all(r["ok"] for r in runs) and same_results(whole)
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": sum(not r["ok"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
