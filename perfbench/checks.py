"""Output checks, digest and quality numbers of one repeat of a workload.

A repeat fails when a CLI call exits non-zero, when ``latencies.csv`` misses
a generated request or lists one twice, or when ``accuracy.csv`` does not
run k = 1..M. run.py also fails a repeat whose digest differs from the
first repeat's. The digest covers every output file, with the manifest's
``duration_ms`` (its one wall-clock field) removed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import workloads


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            manifest = _load(path)
            manifest.pop("duration_ms", None)
            data = json.dumps(manifest, sort_keys=True).encode("utf-8")
        else:
            data = path.read_bytes()
        h.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def _nearest_rank(ordered: list[float], pct: float) -> float:
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def _check_simulation(out: Path, generated: list[int], failures: list[str]) -> dict | None:
    if len(generated) != 1:
        failures.append(f"{out.name}: expected one simulation, saw {len(generated)}")
        return None
    n = generated[0]
    with open(out / "latencies.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ids = [int(r["request_id"]) for r in rows]
    if len(set(ids)) != len(ids):
        failures.append(f"{out.name}: latencies.csv lists a request twice")
    if set(ids) != set(range(n)):
        failures.append(f"{out.name}: latencies.csv misses {len(set(range(n)) - set(ids))} of {n} requests")
    metrics = _load(out / "metrics.json")
    if metrics["completed"] != n:
        failures.append(f"{out.name}: completed {metrics['completed']} of {n} generated requests")
    lat = sorted(float(r["latency_ms"]) for r in rows)
    return {
        "completed": metrics["completed"],
        "sim_avg_latency_ms": metrics["avg_latency_ms"],
        "sim_p95_latency_ms": metrics["p95_latency_ms"],
        "sim_p99_latency_ms": _nearest_rank(lat, 99.0) if lat else None,
        "k_changes": len(metrics["student_number_timeline"]) - 1,
    }


def check_repeat(workload: str, rep_dir: Path, result: dict) -> tuple[list[str], dict]:
    """Return the failures and the quality numbers of one finished repeat."""
    failures = [f"{job['label']}: CLI exited {job['rc']}" for job in result["jobs"] if job["rc"] != 0]
    if failures:
        return failures, {}
    out = rep_dir / "out"
    quality: dict = {}
    try:
        if workload == "train-stock":
            conv = _load(out / "distill" / "convergence.json")
            prune = _load(out / "prune" / "prune_result.json")
            with open(out / "prune" / "accuracy.csv", encoding="utf-8", newline="") as fh:
                ks = [int(r["k"]) for r in csv.DictReader(fh)]
            if ks != list(range(1, conv["students"] + 1)):
                failures.append(f"accuracy.csv runs k = {ks}, not 1..{conv['students']}")
            best_k = prune["best_k"]
            teacher = conv["teacher_test_accuracy"]
            quality = {"teacher_test_acc": teacher, "students": conv["students"], "best_k": best_k,
                       "retention": prune["rows"][best_k - 1][2] / teacher}
        else:
            sims = {job["label"]: _check_simulation(out / job["label"], job["generated"], failures)
                    for job in result["jobs"]}
            quality = dict(sims[workloads.PRIMARY_SIM[workload]] or {})
            quality["completed"] = sum(s["completed"] for s in sims.values() if s)
            if workload == "serve-ablation" and all(sims.values()):
                quality["sim_speedup_vs_dynbatch"] = (
                    sims["dynbatch_12l"]["sim_avg_latency_ms"] / sims["studentpar_2l"]["sim_avg_latency_ms"])
                quality["mode_avg_latency_ms"] = {k: s["sim_avg_latency_ms"] for k, s in sims.items()}
    except (OSError, KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
        failures.append(f"unreadable output: {exc!r}")
    return failures, quality
