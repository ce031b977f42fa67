"""The studentpar benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, untraced
    python3 perfbench/run.py --scan-nodes              # opt-in: serve-fanout at 1, 4, 16, 64 nodes

Run from the repository root. Each repeat of a workload runs its CLI jobs
(see workloads.py) in a fresh worker process, one worker at a time, and
repeats start while they are expected to end within ``--seconds`` (at least
two repeats, so that the outputs of two repeats of one seed can be compared).
Set-up time is measured on several set-up-only workers as well.

Untraced, the last line of stdout is the JSON result with the end-to-end
metrics (medians over repeats); ``wall_cal_s`` is the jobs' wall time scaled
to a fixed host speed by the probes of hostspeed.py. With ``--trace 1`` repeats alternate
between untraced and traced, and the result holds the per-layer metrics of
the traced repeats and the tracing overhead. Lines above it print every
metric with its unit and sample count, the deterministic quality numbers,
the output digest and the environment; ``perfbench/out/`` keeps the full
report and the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

MIN_REPEATS = 2
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # one workload run must end well inside the 180 s a run may take

END_TO_END_UNITS = {"wall_cal_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SAMPLE_UNITS = {**END_TO_END_UNITS, "wall_s": "s", "probe_ms": "ms", "sim_req_per_s": "1/s"}
QUALITY_UNITS = {
    "teacher_test_acc": "share", "retention": "share", "students": "count", "best_k": "count",
    "sim_avg_latency_ms": "ms", "sim_p95_latency_ms": "ms",
    "sim_p99_latency_ms": "ms", "sim_speedup_vs_dynbatch": "x", "completed": "count",
    "k_changes": "count",
}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("servesim.events", "servesim.k_changes"):
        return "count"
    if name.endswith("_ratio"):
        return "share"
    if name.endswith(("_per_prune_batch", "_per_dispatch")):
        return "count"
    if name.endswith("_ms_mean"):
        return "ms"
    if name.endswith((".us", "_per_event", "_per_request")):
        return "us"
    return "s"


def monotonic() -> float:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC) / 1e9


def commit() -> str:
    """HEAD of the checkout's git metadata, read without running git; 'unknown' outside git."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((workloads.ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(workloads.ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn(run_dir: Path, args: argparse.Namespace, deadline: float, *flags: str) -> dict:
    """Run one worker to completion in ``run_dir`` and return its result."""
    run_dir.mkdir(parents=True)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--nodes", str(args.nodes), *flags]
    if args.toy:
        cmd.append("--toy")
    cmd += ["--started", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, cwd=run_dir, stdin=subprocess.DEVNULL, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker in {run_dir} did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise BenchError(f"worker in {run_dir} exited {rc}")
    return json.loads((run_dir / "result.json").read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(args: argparse.Namespace) -> dict:
    """Set up, repeat the workload for ``args.seconds``, check every repeat and summarise."""
    deadline = monotonic() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    if args.workload == "serve-fanout" and args.nodes != workloads.FANOUT_NODES:
        tag += f"-nodes{args.nodes}"
    base = args.out / tag
    shutil.rmtree(base, ignore_errors=True)
    load_before = os.getloadavg()

    # the first worker compiles bytecode and warms the file cache; it is not measured
    spawn(base / "warmup", args, deadline, "--setup-only")
    setup = [spawn(base / f"setup{i}", args, deadline, "--setup-only")["setup_s"]
             for i in range(1 if args.toy else SETUP_PROBES)]

    repeats: list[dict] = []
    loop_start = monotonic()
    while True:
        traced = bool(args.trace) and len(repeats) % 2 == 1
        rep_dir = base / f"rep{len(repeats)}"
        t0 = monotonic()
        res = spawn(rep_dir, args, deadline, *(["--trace"] if traced else []))
        res["traced"] = traced
        res["duration_s"] = monotonic() - t0
        failures, quality = checks.check_repeat(args.workload, rep_dir, res)
        res["digest"] = checks.digest(rep_dir / "out")
        if repeats and res["digest"] != repeats[0]["digest"]:
            failures.append("deterministic outputs differ from repeat 0")
        res["failures"], res["quality"] = failures, quality
        repeats.append(res)
        if len(repeats) > 1:  # keep the first repeat's outputs for inspection
            shutil.rmtree(rep_dir / "out", ignore_errors=True)
        # start another repeat only if it is expected to end within --seconds,
        # so a run's length does not depend on how long one repeat takes
        now = monotonic()
        expected = statistics.median(r["duration_s"] for r in repeats)
        if now + expected > deadline - 5.0:
            break
        if len(repeats) >= MIN_REPEATS and now + expected - loop_start > args.seconds:
            break

    untraced = [r for r in repeats if not r["traced"]]
    quality = dict(repeats[0]["quality"])
    samples = {
        "wall_cal_s": [r["wall_cal_s"] for r in untraced],
        "setup_s": setup + [r["setup_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "wall_s": [r["wall_s"] for r in untraced],
        "probe_ms": [r["probe_ms"] for r in untraced],
    }
    if args.workload != "train-stock" and "completed" in quality:
        samples["sim_req_per_s"] = [quality["completed"] / r["wall_s"] for r in untraced]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "toy": args.toy, "attempted": len(repeats),
        "failed": sum(1 for r in repeats if r["failures"]),
        "failures": [f"repeat {i}: {f}" for i, r in enumerate(repeats) for f in r["failures"]],
        "digest": repeats[0]["digest"],
        "samples": samples,
        "repeats": [{"traced": r["traced"], "wall_s": r.get("wall_s"), "wall_cal_s": r.get("wall_cal_s"),
                     "jobs": {j["label"]: j["s"] for j in r["jobs"]},
                     "probes": {j["label"]: len(j["probes"]) for j in r["jobs"]}} for r in repeats],
        "quality": quality,
        "env": {
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            **repeats[0]["env"], "commit": commit(), "source_sha256": source_digest(),
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        },
    }
    if args.workload == "serve-fanout":
        report["nodes"] = args.nodes
    traced = [r for r in repeats if r["traced"]]
    if traced:
        layers = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        layers["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        layers["trace.untraced_wall_s"] = statistics.median(samples["wall_s"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        report["layers"] = layers
        report["trace_samples"] = len(traced)
    (base / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return report


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in report["layers"].items()}
    else:
        metrics = {name: {"value": statistics.median(report["samples"][name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(report: dict) -> None:
    print(f"== workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"repeats {report['attempted']}  failed {report['failed']} "
          f"(failed_share {report['failed'] / report['attempted']:.3f})")
    for failure in report["failures"]:
        print(f"   FAILED {failure}")
    print(f"   {'metric':34s} {'median':>14s} {'unit':6s} {'n':>3s}  {'q1':>12s} {'q3':>12s}")
    for name, values in report["samples"].items():
        q1, q3 = quartiles(values)
        print(f"   {name:34s} {statistics.median(values):14.6f} {SAMPLE_UNITS[name]:6s} {len(values):3d}  "
              f"{q1:12.6f} {q3:12.6f}")
    n = report["attempted"]
    for name, value in report["quality"].items():
        if isinstance(value, dict):
            value = "  ".join(f"{k}={v}" for k, v in value.items())
            print(f"   {name:34s} {value}  (deterministic, n={n})")
        else:
            print(f"   {name:34s} {value:14.6f} {QUALITY_UNITS[name]:6s} {n:3d}  (deterministic)")
    if report.get("layers"):
        print(f"   per-layer, median of {report['trace_samples']} traced repeat(s):")
        for name, value in report["layers"].items():
            print(f"   {name:44s} {value:16.6f} {layer_unit(name)}")
    print(f"   digest {report['digest']}")
    print("   env " + json.dumps(report["env"], sort_keys=True))


def scan_nodes(args: argparse.Namespace) -> dict:
    """Simulator cost per event as the node count grows, on the serve-fanout traffic."""
    rows = {}
    for nodes in workloads.SCAN_NODES:
        ns = argparse.Namespace(**{**vars(args), "workload": "serve-fanout", "nodes": nodes,
                                   "trace": 1, "seconds": 0})
        report = run_workload(ns)
        layers = report["layers"]
        rows[nodes] = {name: layers[name] for name in
                       ("servesim.us_per_event", "servesim.controller_tick.us", "servesim.events")}
        rows[nodes]["wall_s"] = statistics.median(report["samples"]["wall_s"])
        print(f"nodes {nodes:3d}  us_per_event {rows[nodes]['servesim.us_per_event']:9.3f}  "
              f"controller_tick_us {rows[nodes]['servesim.controller_tick.us']:9.3f}  "
              f"events {rows[nodes]['servesim.events']:8.0f}  untraced wall_s {rows[nodes]['wall_s']:.3f}",
              flush=True)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="studentpar benchmark")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scan-nodes", action="store_true",
                        help="opt-in: per-event simulator cost of serve-fanout at 1, 4, 16, 64 nodes")
    parser.add_argument("--toy", action="store_true", help="toy-scale inputs, for the smoke test")
    parser.add_argument("--out", type=Path, default=HERE / "out", help="directory for reports and run files")
    args = parser.parse_args(argv)
    args.nodes = workloads.FANOUT_NODES
    if not args.scan_nodes and args.workload is None:
        parser.error("--workload is required unless --scan-nodes is given")
    for needed in (workloads.ROOT / "src" / "studentpar", workloads.CONFIGS):
        if not needed.is_dir():
            print(f"benchmark: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    try:
        if args.scan_nodes:
            print(json.dumps({"scan_nodes": scan_nodes(args)}))
            return 0
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            report = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            print_report(report)
            results[name] = result_line(report)
        print(json.dumps(results if args.workload == "all" else results[args.workload]))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
