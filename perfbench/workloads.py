"""The benchmark's workloads: fixed sequences of studentpar CLI jobs.

Each workload derives its configs from the stock files in ``configs/`` and
writes them into the current directory. The CLI receives only these configs
and the workload seed, through ``--seed``. The load is closed-loop: a job
starts only after the previous one has finished. Traffic inside the
simulator is open-loop Poisson at the rates below, and the simulator times
each request from its scheduled arrival.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

WORKLOADS = ("train-stock", "serve-burst", "serve-fanout", "serve-ablation")
# label of the job whose simulation gives the workload's sim_* latencies
PRIMARY_SIM = {"serve-burst": "simulate", "serve-fanout": "simulate", "serve-ablation": "studentpar_2l"}

# serve workloads take a flat table so they do not depend on train-stock
FLAT_TABLE = {"kind": "flat", "students": 3}

FANOUT_NODES = 32
FANOUT_RPS, FANOUT_MS = 32_000.0, 2_500.0
SCAN_NODES = (1, 4, 16, 64)

ABLATION_RPS, ABLATION_MS = 2_000.0, 20_000.0
# one weight per 8-token length bin, up to 128 tokens
TRACE_LENGTH_WEIGHTS = (1.0, 2.0, 3.0, 3.0, 2.0, 1.5, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1)
TRACE_BIN_WIDTH = 8

# toy scale, for the smoke test only: seconds of work become milliseconds
TOY_TASK = {"n_train": 64, "n_val": 32, "n_test": 64}
TOY_TEACHER = {"depth": 2, "epochs": 3}
TOY_DISTILL = {"max_students": 2, "epochs_per_student": 2, "pruning_epochs": 1}
TOY_TIME_SCALE = 0.02


def _stock(mode: str) -> dict:
    return json.loads((CONFIGS / f"{mode}.json").read_text(encoding="utf-8"))


def _write_json(path: str, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def write_trace(path: str, seed: int, rps: float, duration_ms: float) -> int:
    """Write a Poisson arrival trace drawn from ``seed``; return its request count."""
    rng = random.Random(seed)
    bins = range(len(TRACE_LENGTH_WEIGHTS))
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arrival_ms", "length_tokens"])
        t = rng.expovariate(rps / 1000.0)
        while t <= duration_ms:
            b = rng.choices(bins, weights=TRACE_LENGTH_WEIGHTS)[0]
            length = rng.randint(b * TRACE_BIN_WIDTH + 1, (b + 1) * TRACE_BIN_WIDTH)
            writer.writerow([f"{t:.6f}", length])
            n += 1
            t += rng.expovariate(rps / 1000.0)
    return n


def _train_stock(toy: bool) -> list[tuple[str, dict]]:
    distill, prune = _stock("distill"), _stock("prune")
    distill["out_dir"] = "out/distill"
    prune["out_dir"] = "out/prune"
    prune["distill_dir"] = "out/distill"
    if toy:
        for cfg in (distill, prune):
            cfg["task"].update(TOY_TASK)
            cfg["distill"].update(TOY_DISTILL)
        distill["teacher"].update(TOY_TEACHER)
    return [("distill", distill), ("prune", prune)]


def _simulate(label: str) -> dict:
    cfg = _stock("simulate")
    cfg["out_dir"] = f"out/{label}"
    cfg["accuracy_table"] = dict(FLAT_TABLE)
    return cfg


def _serve_burst(toy: bool) -> list[tuple[str, dict]]:
    cfg = _simulate("simulate")
    if toy:
        for phase in cfg["workload"]["phases"]:
            phase["duration_ms"] *= TOY_TIME_SCALE
    return [("simulate", cfg)]


def _serve_fanout(toy: bool, nodes: int) -> list[tuple[str, dict]]:
    cfg = _simulate("simulate")
    cfg["cluster"]["nodes"] = nodes
    duration = FANOUT_MS * (TOY_TIME_SCALE if toy else 1.0)
    cfg["workload"] = {"kind": "poisson", "rps": FANOUT_RPS, "duration_ms": duration}
    return [("simulate", cfg)]


def _serve_ablation(toy: bool, seed: int) -> list[tuple[str, dict]]:
    """The five serving modes of acceptance criteria 7 and 8, on one shared trace."""
    write_trace("trace.csv", seed, ABLATION_RPS, ABLATION_MS * (TOY_TIME_SCALE if toy else 1.0))
    jobs = []
    for label, cluster, factors in (
        ("studentpar_2l", {}, {}),
        ("students_4l", {}, {"depth": 4}),
        ("with_padding", {"pad_to_max": True}, {}),
        ("with_waiting_queue", {"pad_to_max": True, "batch_timeout_ms": 10.0}, {}),
        ("dynbatch_12l", {"group_size": 1, "replicas_per_gpu": 1, "pad_to_max": True,
                          "batch_timeout_ms": 10.0, "max_merge": 8}, {"depth": 12, "width_per_student": 768}),
    ):
        cfg = _simulate(label)
        k = cluster.get("group_size", cfg["cluster"]["group_size"])
        cfg["cluster"].update(cluster)
        cfg["cluster"]["controller"].update({"min_students": k, "max_students": k})  # pinned group size
        cfg["factors"].update(factors)
        cfg["workload"] = {"kind": "trace", "path": "trace.csv"}
        jobs.append((label, cfg))
    return jobs


def write_inputs(workload: str, seed: int, toy: bool = False,
                 nodes: int = FANOUT_NODES) -> list[tuple[str, list[str]]]:
    """Write the workload's configs into the current directory; return its (label, argv) jobs."""
    if workload == "train-stock":
        configs = _train_stock(toy)
    elif workload == "serve-burst":
        configs = _serve_burst(toy)
    elif workload == "serve-fanout":
        configs = _serve_fanout(toy, nodes)
    elif workload == "serve-ablation":
        configs = _serve_ablation(toy, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = []
    for label, cfg in configs:
        _write_json(f"{label}.json", cfg)
        jobs.append((label, [cfg["mode"], "--config", f"{label}.json", "--seed", str(seed)]))
    return jobs
