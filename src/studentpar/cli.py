"""Command-line entry point: distill | prune | simulate | perf | report.

Each run is driven by one JSON config file with a strict schema (unknown
keys abort), writes machine-readable outputs plus a manifest with content
hashes, and is bit-reproducible for a fixed seed apart from the manifest's
wall-clock field.

Exit codes: 0 success, 2 user or config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from . import distill as dst
from . import nnkernel as nn
from . import perfmodel as pm
from . import servesim as sim
from .seeding import fork_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    pass


def _require_keys(obj: dict, allowed: set[str], required: set[str], ctx: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {ctx}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing key '{key}' in {ctx}")


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, config: dict, outputs: list[Path], started: float) -> None:
    manifest = {
        "version": __version__,
        "config": config,
        "duration_ms": (time.monotonic() - started) * 1000.0,
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")


def _json_dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


# -- config parsing ------------------------------------------------------------


def _parse_task(obj: dict, seed: int) -> dst.DataSplits:
    allowed = {"kind", "n_classes", "d_in", "n_train", "n_val", "n_test", "class_sep"}
    _require_keys(obj, allowed, {"kind"}, "task")
    if obj["kind"] != "gaussian":
        raise ConfigError(f"unknown task kind '{obj['kind']}'")
    return dst.make_gaussian_task(
        n_classes=obj.get("n_classes", 2),
        d_in=obj.get("d_in", 8),
        n_train=obj.get("n_train", 256),
        n_val=obj.get("n_val", 128),
        n_test=obj.get("n_test", 256),
        class_sep=obj.get("class_sep", 2.0),
        seed=fork_seed(seed, "task"),
    )


def _parse_distill_cfg(obj: dict, seed: int) -> dst.DistillConfig:
    allowed = {
        "lambda_stack", "subsample_top_pct", "subsample_rand_pct", "max_students",
        "epochs_per_student", "soft_ce_temperature", "overfit_patience",
        "batch_size", "learning_rate", "pruning_epochs", "min_improvement",
    }
    _require_keys(obj, allowed, set(), "distill")
    try:
        return dst.DistillConfig(seed=seed, **obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad distill config: {exc}") from exc


def _parse_teacher_cfg(obj: dict) -> dict:
    allowed = {"depth", "rep_dim", "hidden_dim", "epochs", "learning_rate", "optimizer", "checkpoint"}
    _require_keys(obj, allowed, set(), "teacher")
    if obj.get("optimizer", "adam") not in ("adam", "sgd"):
        raise ConfigError(f"unknown optimizer '{obj['optimizer']}' in teacher")
    return {
        "depth": obj.get("depth", 12),
        "rep_dim": obj.get("rep_dim", 16),
        "hidden_dim": obj.get("hidden_dim", 32),
        "epochs": obj.get("epochs", 300),
        "learning_rate": obj.get("learning_rate", 1e-3),
        "optimizer": obj.get("optimizer", "adam"),
        "checkpoint": obj.get("checkpoint"),
    }


def _parse_factors(obj: dict) -> sim.ServiceFactors:
    allowed = {"depth", "width_per_student", "capacity_per_gpu", "pcie_tokens_per_ms",
               "gather_ms", "calibration"}
    _require_keys(obj, allowed, set(), "factors")
    model = pm.PerfModel()
    cal = obj.get("calibration", {})
    _require_keys(cal, {"observed_latency_ms", "gpus", "arrival_rps"}, set(), "factors.calibration")
    reference = pm.baseline_reference(
        gpus=cal.get("gpus", 4), arrival_rps=cal.get("arrival_rps", 2000.0)
    )
    reference = replace(
        reference,
        capacity=obj.get("capacity_per_gpu", pm.DEFAULT_CAPACITY),
        pcie_tokens_per_ms=obj.get("pcie_tokens_per_ms", pm.DEFAULT_PCIE_TOKENS_PER_MS),
    )
    try:
        model.calibrate(reference, cal.get("observed_latency_ms", pm.REFERENCE_OBSERVED_LATENCY_MS))
    except ValueError as exc:
        raise ConfigError(f"infeasible calibration: {exc}") from exc
    return sim.ServiceFactors(
        model=model,
        depth=obj.get("depth", 2),
        width_per_student=obj.get("width_per_student", 256),
        capacity=obj.get("capacity_per_gpu", pm.DEFAULT_CAPACITY),
        pcie_tokens_per_ms=obj.get("pcie_tokens_per_ms", pm.DEFAULT_PCIE_TOKENS_PER_MS),
        gather_ms=obj.get("gather_ms", pm.DEFAULT_GATHER_MS),
    )


def _parse_cluster(obj: dict, accuracy_table: dst.AccuracyTable) -> sim.ClusterConfig:
    allowed = {"nodes", "gpus_per_node", "group_size", "replicas_per_gpu", "bin_width",
               "num_bins", "max_len", "max_merge", "pad_to_max", "batch_timeout_ms", "controller"}
    _require_keys(obj, allowed, set(), "cluster")
    ctl_obj = obj.get("controller", {})
    _require_keys(ctl_obj, {"idle_window_ms", "min_students", "max_students"}, set(), "cluster.controller")
    kwargs = {k: v for k, v in obj.items() if k != "controller"}
    try:
        controller = sim.ControllerConfig(
            max_students=ctl_obj.get("max_students", len(accuracy_table)),
            accuracy_table=accuracy_table,
            min_students=ctl_obj.get("min_students", 1),
            idle_window_ms=ctl_obj.get("idle_window_ms", 120_000.0),
        )
        return sim.ClusterConfig(controller=controller, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad cluster config: {exc}") from exc


def _poisson_requests(spec: sim.PoissonSpec, seed: int, max_len: int, ctx: str) -> list[sim.Request]:
    try:
        return sim.generate_workload(spec, seed, max_len=max_len)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {ctx}: {exc}") from exc


def _parse_workload(obj: dict, seed: int, max_len: int) -> list[sim.Request]:
    allowed = {"kind", "rps", "duration_ms", "length_weights", "path", "scale", "phases"}
    _require_keys(obj, allowed, {"kind"}, "workload")
    kind = obj["kind"]
    if kind == "poisson":
        spec = sim.PoissonSpec(
            rps=obj.get("rps", 100.0),
            duration_ms=obj.get("duration_ms", 10_000.0),
            length_weights=tuple(obj["length_weights"]) if obj.get("length_weights") else None,
        )
        return _poisson_requests(spec, fork_seed(seed, "workload"), max_len, "workload")
    if kind == "trace":
        if "path" not in obj:
            raise ConfigError("trace workload requires 'path'")
        try:
            return sim.generate_workload(
                sim.TraceFile(obj["path"], obj.get("scale", 1.0)),
                fork_seed(seed, "workload"), max_len=max_len,
            )
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad trace: {exc}") from exc
    if kind == "phases":
        requests: list[sim.Request] = []
        offset = 0.0
        for i, phase in enumerate(obj.get("phases", [])):
            _require_keys(phase, {"rps", "duration_ms"}, {"rps", "duration_ms"}, f"workload.phases[{i}]")
            spec = sim.PoissonSpec(rps=phase["rps"], duration_ms=phase["duration_ms"])
            part = _poisson_requests(spec, fork_seed(seed, f"workload-phase-{i}"), max_len,
                                     f"workload.phases[{i}]")
            requests.extend(
                sim.Request(0, r.arrival_ms + offset, r.length_tokens) for r in part
            )
            offset += phase["duration_ms"]
        return [sim.Request(i, r.arrival_ms, r.length_tokens) for i, r in enumerate(requests)]
    raise ConfigError(f"unknown workload kind '{kind}'")


def _load_checkpoint(load, path):
    """Run one checkpoint loader; malformed content is a config error, not a traceback."""
    try:
        return load(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad checkpoint {path}: {exc}") from exc


def _check_input_width(model, splits, path) -> None:
    if model.input_proj.in_dim != splits.train.inputs.shape[1]:
        raise ConfigError(f"checkpoint {path} takes inputs of width {model.input_proj.in_dim}, "
                          f"the task has width {splits.train.inputs.shape[1]}")


# -- commands --------------------------------------------------------------------


def cmd_distill(config_path: str, seed_override: int | None, out_override: str | None) -> int:
    started = time.monotonic()
    config = _load_config(config_path)
    _require_keys(config, {"mode", "seed", "out_dir", "task", "teacher", "distill", "student_depth"},
                  {"mode", "seed", "out_dir"}, "config")
    if config["mode"] != "distill":
        raise ConfigError(f"config mode is '{config['mode']}', expected 'distill'")
    seed = seed_override if seed_override is not None else config["seed"]
    out_dir = Path(out_override or config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    splits = _parse_task(config.get("task", {"kind": "gaussian"}), seed)
    tcfg = _parse_teacher_cfg(config.get("teacher", {}))
    cfg = _parse_distill_cfg(config.get("distill", {}), seed)
    student_depth = config.get("student_depth", 2)

    if tcfg["checkpoint"]:
        teacher = _load_checkpoint(nn.load_model, tcfg["checkpoint"])
        if not isinstance(teacher, nn.TeacherModel):
            raise ConfigError("teacher checkpoint does not contain a teacher model")
        _check_input_width(teacher, splits, tcfg["checkpoint"])
    else:
        teacher = nn.TeacherModel.build(
            d_in=splits.train.inputs.shape[1], rep_dim=tcfg["rep_dim"],
            hidden_dim=tcfg["hidden_dim"], depth=tcfg["depth"],
            n_classes=int(splits.train.labels.max()) + 1,
            rng=dst.rng_for(seed, "teacher-init"),
        )
        dst.train_teacher(teacher, splits, epochs=tcfg["epochs"],
                          learning_rate=tcfg["learning_rate"], seed=seed,
                          optimizer_kind=tcfg["optimizer"])

    state, records = dst.sequential_training(teacher, splits, cfg, student_depth=student_depth)

    nn.save_model(teacher, out_dir / "teacher.json")
    dst.save_ensemble(state, out_dir / "ensemble.json")
    run_summary = {
        "seed": seed,
        "config": asdict(cfg),
        "checkpoints": {"teacher": "teacher.json", "ensemble": "ensemble.json"},
        "students": len(state),
        "multipliers": state.multipliers,
        "teacher_test_accuracy": dst.teacher_accuracy(teacher, splits.test),
        "ensemble_test_accuracy_teacher_head": dst.ensemble_accuracy_via_teacher_head(
            teacher, state, splits.test),
        "final_validation_residual_mse": dst.residual_mse(teacher, state, splits.validation),
        "records": [asdict(r) for r in records],
    }
    _json_dump(out_dir / "convergence.json", run_summary)
    _write_manifest(out_dir, config, [out_dir / "teacher.json", out_dir / "ensemble.json",
                                      out_dir / "convergence.json"], started)
    return EXIT_OK


def cmd_prune(config_path: str, seed_override: int | None, out_override: str | None) -> int:
    started = time.monotonic()
    config = _load_config(config_path)
    _require_keys(config, {"mode", "seed", "out_dir", "distill_dir", "task", "distill"},
                  {"mode", "seed", "out_dir", "distill_dir"}, "config")
    if config["mode"] != "prune":
        raise ConfigError(f"config mode is '{config['mode']}', expected 'prune'")
    seed = seed_override if seed_override is not None else config["seed"]
    out_dir = Path(out_override or config["out_dir"])
    distill_dir = Path(config["distill_dir"])
    teacher_path = distill_dir / "teacher.json"
    ensemble_path = distill_dir / "ensemble.json"
    if not teacher_path.is_file() or not ensemble_path.is_file():
        raise ConfigError(f"missing distill checkpoints under {distill_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)

    teacher = _load_checkpoint(nn.load_model, teacher_path)
    if not isinstance(teacher, nn.TeacherModel):
        raise ConfigError(f"{teacher_path} does not contain a teacher model")
    state = _load_checkpoint(dst.load_ensemble, ensemble_path)
    if len(state) == 0:
        raise ConfigError(f"{ensemble_path} holds no students")
    splits = _parse_task(config.get("task", {"kind": "gaussian"}), seed)
    cfg = _parse_distill_cfg(config.get("distill", {}), seed)
    _check_input_width(teacher, splits, teacher_path)
    for student in state.students:
        _check_input_width(student, splits, ensemble_path)
        if student.rep_dim != teacher.rep_dim:
            raise ConfigError(f"{ensemble_path} holds students of width {student.rep_dim}, "
                              f"the teacher's representation has width {teacher.rep_dim}")

    state, table, best_k = dst.adaptive_pruning(teacher, state, splits, cfg)

    dst.save_ensemble(state, out_dir / "ensemble_pruned.json")
    dst.export_accuracy_table(table, out_dir / "accuracy.csv")
    _json_dump(out_dir / "prune_result.json", {
        "seed": seed,
        "distill_dir": str(distill_dir),
        "checkpoints": {"ensemble_pruned": "ensemble_pruned.json"},
        "best_k": best_k,
        "rows": table.rows,
    })
    _write_manifest(out_dir, config, [out_dir / "ensemble_pruned.json", out_dir / "accuracy.csv",
                                      out_dir / "prune_result.json"], started)
    return EXIT_OK


def cmd_simulate(config_path: str, seed_override: int | None, out_override: str | None) -> int:
    started = time.monotonic()
    config = _load_config(config_path)
    _require_keys(config, {"mode", "seed", "out_dir", "accuracy_table", "cluster", "factors", "workload"},
                  {"mode", "seed", "out_dir", "workload"}, "config")
    if config["mode"] != "simulate":
        raise ConfigError(f"config mode is '{config['mode']}', expected 'simulate'")
    seed = seed_override if seed_override is not None else config["seed"]
    out_dir = Path(out_override or config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    acc_obj = config.get("accuracy_table", {"kind": "flat", "students": 3})
    _require_keys(acc_obj, {"kind", "path", "students", "base", "step"}, {"kind"}, "accuracy_table")
    if acc_obj["kind"] == "csv":
        try:
            table = dst.load_accuracy_table(acc_obj["path"])
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"bad accuracy table: {exc}") from exc
    elif acc_obj["kind"] == "flat":
        m = acc_obj.get("students", 3)
        base, step = acc_obj.get("base", 0.93), acc_obj.get("step", 0.01)
        table = dst.AccuracyTable([(k, min(1.0, base + step * (k - 1)),
                                    min(1.0, base + step * (k - 1))) for k in range(1, m + 1)])
    else:
        raise ConfigError(f"unknown accuracy_table kind '{acc_obj['kind']}'")

    factors = _parse_factors(config.get("factors", {}))
    cluster = _parse_cluster(config.get("cluster", {}), table)
    workload = _parse_workload(config["workload"], seed, cluster.max_len)

    metrics = sim.run_simulation(cluster, workload, factors)
    sim.write_metrics_json(metrics, out_dir / "metrics.json")
    sim.write_latency_csv(metrics.per_request, out_dir / "latencies.csv")
    _write_manifest(out_dir, config, [out_dir / "metrics.json", out_dir / "latencies.csv"], started)
    return EXIT_OK


def cmd_perf(config_path: str, seed_override: int | None, out_override: str | None) -> int:
    started = time.monotonic()
    config = _load_config(config_path)
    _require_keys(config, {"mode", "seed", "out_dir", "calibration", "gpus"},
                  {"mode", "out_dir"}, "config")
    if config["mode"] != "perf":
        raise ConfigError(f"config mode is '{config['mode']}', expected 'perf'")
    out_dir = Path(out_override or config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    cal = config.get("calibration", {})
    _require_keys(cal, {"observed_latency_ms", "arrival_rps"}, set(), "calibration")
    gpus = config.get("gpus", 4)
    arrival_rps = cal.get("arrival_rps", 2000.0)
    model = pm.PerfModel()
    try:
        model.calibrate(pm.baseline_reference(gpus, arrival_rps),
                        cal.get("observed_latency_ms", pm.REFERENCE_OBSERVED_LATENCY_MS))
    except ValueError as exc:
        raise ConfigError(f"infeasible calibration: {exc}") from exc
    rows = model.factor_table(pm.reference_factor_rows(gpus, arrival_rps))
    pm.write_factor_table_csv(rows, out_dir / "factors.csv")
    _write_manifest(out_dir, config, [out_dir / "factors.csv"], started)
    return EXIT_OK


def _run_names(metric_paths: list[str]) -> list[str]:
    """One distinct name per metrics file: its stem (or, for ``metrics.json``, its
    directory), with parent directories prepended while names collide; the
    same file given twice gets ``#2``, ``#3``, ... on its repeats."""
    parts = []
    for path in metric_paths:
        p = Path(os.path.abspath(path))
        dirs = [d for d in p.parent.parts if d != p.anchor]
        parts.append((dirs if p.stem == "metrics" else [*dirs, p.stem]) or [p.stem])
    depth = [1] * len(parts)
    while True:
        names = ["/".join(ps[-d:]) for ps, d in zip(parts, depth)]
        grow = [i for i, name in enumerate(names) if depth[i] < len(parts[i]) and any(
            other == name and ps != parts[i] for other, ps in zip(names, parts))]
        if not grow:
            break
        for i in grow:
            depth[i] += 1
    seen = Counter()
    for i, name in enumerate(names):
        seen[name] += 1
        if seen[name] > 1:
            names[i] = f"{name}#{seen[name]}"
    return names


def cmd_report(metric_paths: list[str], out_override: str | None) -> int:
    started = time.monotonic()
    if not metric_paths:
        raise ConfigError("report needs at least one metrics file")
    out_dir = Path(out_override or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for path in metric_paths:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"metrics file not found: {path}")
        data = json.loads(p.read_text(encoding="utf-8"))
        required = {"avg_latency_ms", "p95_latency_ms", "throughput_per_gpu", "completed",
                    "student_number_timeline", "accuracy_timeline"}
        missing = required - data.keys()
        if missing:
            raise ConfigError(f"{path}: metrics schema mismatch, missing {sorted(missing)}")
        runs.append(data)
    names = _run_names(metric_paths)

    by_avg = sorted((i for i, d in enumerate(runs) if d["avg_latency_ms"] is not None),
                    key=lambda i: runs[i]["avg_latency_ms"])
    ranks = {i: rank for rank, i in enumerate(by_avg, start=1)}

    def fmt(x):
        return "" if x is None else f"{x:.6f}"

    with open(out_dir / "comparison.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "avg_latency_ms", "p95_latency_ms", "throughput_per_gpu", "completed",
                         "rank_avg_latency"])
        for i, (name, d) in enumerate(zip(names, runs)):
            writer.writerow([name, fmt(d["avg_latency_ms"]), fmt(d["p95_latency_ms"]),
                             fmt(d["throughput_per_gpu"]), d["completed"], ranks.get(i, "")])

    with open(out_dir / "long.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time_ms", "series", "value"])
        for name, d in zip(names, runs):
            for t, k in d["student_number_timeline"]:
                writer.writerow([f"{t:.6f}", f"{name}/student_number", k])
            for t, a in d["accuracy_timeline"]:
                writer.writerow([f"{t:.6f}", f"{name}/accuracy", f"{a:.6f}"])
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="studentpar",
                                     description="distillation and serving-simulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("distill", "prune", "simulate", "perf"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    p = sub.add_parser("report")
    p.add_argument("metrics", nargs="+")
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "distill":
            return cmd_distill(args.config, args.seed, args.out)
        if args.command == "prune":
            return cmd_prune(args.config, args.seed, args.out)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.seed, args.out)
        if args.command == "perf":
            return cmd_perf(args.config, args.seed, args.out)
        if args.command == "report":
            return cmd_report(args.metrics, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
