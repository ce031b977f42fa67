"""Command-line entry point: distill | prune | simulate | perf | report.

Each run is driven by one JSON config file with a strict schema (unknown
keys abort), writes machine-readable outputs plus a manifest with content
hashes, and is bit-reproducible for a fixed seed apart from the manifest's
wall-clock field.

Exit codes: 0 success, 2 user or config error, 3 numeric failure. Each
mode first parses and loads all of its input inside ``_bad_input``, where
any malformed value becomes a config error; training, simulation and
writing outputs come after that phase, so a numeric failure there still
exits 3 and a fault in the program still shows its traceback.
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
from contextlib import contextmanager
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


@contextmanager
def _bad_input():
    """The parse-and-load phase of a mode: any malformed input in it is a config error."""
    try:
        yield
    except (ValueError, TypeError, KeyError, AttributeError, IndexError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc


def _require_keys(obj, allowed: set[str], required: set[str], ctx: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx} must be a JSON object, got {json.dumps(obj)[:60]}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {ctx}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing key '{key}' in {ctx}")


def _present(obj: dict, *keys: str) -> dict:
    """The named keys that ``obj`` sets, so that unset ones take the callee's defaults."""
    return {k: obj[k] for k in keys if k in obj}


def _open_run(config_path: str, mode: str, keys: set[str], required: set[str],
              seed_override: int | None, out_override: str | None):
    """Start the clock, load and check the config, pick the seed, create the output directory."""
    started = time.monotonic()
    p = Path(config_path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    config = json.loads(p.read_text(encoding="utf-8"))
    _require_keys(config, {"mode", "seed", "out_dir", *keys}, {"mode", "out_dir", *required}, "config")
    if config["mode"] != mode:
        raise ConfigError(f"config mode is '{config['mode']}', expected '{mode}'")
    dst.check_counts(config, {"seed": 0})
    if seed_override is not None:
        dst.check_counts({"seed": seed_override}, {"seed": 0})
    seed = seed_override if seed_override is not None else config.get("seed")
    out_dir = Path(out_override or config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return config, seed, out_dir, started


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _json_dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def _write_manifest(out_dir: Path, config, outputs: list[Path], started: float) -> None:
    _json_dump(out_dir / "manifest.json", {
        "version": __version__,
        "config": config,
        "duration_ms": (time.monotonic() - started) * 1000.0,
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    })


def _write_csv(path: Path, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# -- config parsing (each runs inside a mode's parse phase) ----------------------


def _parse_task(obj, seed: int) -> dst.DataSplits:
    allowed = {"kind", "n_classes", "d_in", "n_train", "n_val", "n_test", "class_sep"}
    _require_keys(obj, allowed, {"kind"}, "task")
    if obj["kind"] != "gaussian":
        raise ConfigError(f"unknown task kind '{obj['kind']}'")
    return dst.make_gaussian_task(seed=fork_seed(seed, "task"),
                                  **{k: v for k, v in obj.items() if k != "kind"})


def _parse_distill_cfg(obj, seed: int, n_train: int) -> dst.DistillConfig:
    allowed = {
        "lambda_stack", "subsample_top_pct", "subsample_rand_pct", "max_students",
        "epochs_per_student", "soft_ce_temperature", "overfit_patience",
        "batch_size", "learning_rate", "pruning_epochs", "min_improvement",
    }
    _require_keys(obj, allowed, set(), "distill")
    cfg = dst.DistillConfig(seed=seed, **obj)
    dst.subsample_sizes(n_train, cfg.subsample_top_pct, cfg.subsample_rand_pct)
    return cfg


def _calibrated(cal: dict, reference: pm.PerfFactors) -> pm.PerfModel:
    model = pm.PerfModel()
    model.calibrate(reference, cal.get("observed_latency_ms", pm.REFERENCE_OBSERVED_LATENCY_MS))
    return model


def _parse_factors(obj) -> sim.ServiceFactors:
    allowed = {"depth", "width_per_student", "capacity_per_gpu", "pcie_tokens_per_ms",
               "gather_ms", "calibration"}
    _require_keys(obj, allowed, set(), "factors")
    cal = obj.get("calibration", {})
    _require_keys(cal, {"observed_latency_ms", "gpus", "arrival_rps"}, set(), "factors.calibration")
    kwargs = {"capacity" if k == "capacity_per_gpu" else k: v for k, v in obj.items() if k != "calibration"}
    reference = replace(pm.baseline_reference(**_present(cal, "gpus", "arrival_rps")),
                        **_present(kwargs, "capacity", "pcie_tokens_per_ms"))
    return sim.ServiceFactors(model=_calibrated(cal, reference), **kwargs)


def _parse_accuracy_table(obj) -> dst.AccuracyTable:
    _require_keys(obj, {"kind", "path", "students", "base", "step"}, {"kind"}, "accuracy_table")
    if obj["kind"] == "csv":
        return dst.load_accuracy_table(Path(obj["path"]))
    if obj["kind"] == "flat":
        base, step = obj.get("base", 0.93), obj.get("step", 0.01)
        return dst.AccuracyTable([(k, min(1.0, base + step * (k - 1)), min(1.0, base + step * (k - 1)))
                                  for k in range(1, obj.get("students", 3) + 1)])
    raise ConfigError(f"unknown accuracy_table kind '{obj['kind']}'")


def _parse_cluster(obj, accuracy_table: dst.AccuracyTable) -> sim.ClusterConfig:
    allowed = {"nodes", "gpus_per_node", "group_size", "replicas_per_gpu", "bin_width",
               "num_bins", "max_merge", "pad_to_max", "batch_timeout_ms", "controller"}
    _require_keys(obj, allowed, set(), "cluster")
    ctl = obj.get("controller", {})
    _require_keys(ctl, {"idle_window_ms", "min_students", "max_students"}, set(), "cluster.controller")
    controller = sim.ControllerConfig(accuracy_table=accuracy_table,
                                      **{"max_students": len(accuracy_table), **ctl})
    return sim.ClusterConfig(controller=controller, **{k: v for k, v in obj.items() if k != "controller"})


def _parse_workload(obj, seed: int, cluster: sim.ClusterConfig) -> list[sim.Request]:
    allowed = {"kind", "rps", "duration_ms", "length_weights", "path", "scale", "phases"}
    _require_keys(obj, allowed, {"kind"}, "workload")
    kind = obj["kind"]
    bins = {"max_len": cluster.max_len, "bin_width": cluster.bin_width}
    if kind == "poisson":
        spec = sim.PoissonSpec(
            rps=obj.get("rps", 100.0),
            duration_ms=obj.get("duration_ms", 10_000.0),
            length_weights=tuple(obj["length_weights"]) if obj.get("length_weights") else None,
        )
        return sim.generate_workload(spec, fork_seed(seed, "workload"), **bins)
    if kind == "trace":
        if "path" not in obj:
            raise ConfigError("trace workload requires 'path'")
        return sim.generate_workload(sim.TraceFile(Path(obj["path"]), **_present(obj, "scale")),
                                     fork_seed(seed, "workload"))
    if kind == "phases":
        requests: list[sim.Request] = []
        offset = 0.0
        for i, phase in enumerate(obj.get("phases", [])):
            _require_keys(phase, {"rps", "duration_ms"}, {"rps", "duration_ms"}, f"workload.phases[{i}]")
            spec = sim.PoissonSpec(rps=phase["rps"], duration_ms=phase["duration_ms"])
            part = sim.generate_workload(spec, fork_seed(seed, f"workload-phase-{i}"), **bins)
            for r in part:
                requests.append(sim.Request(len(requests), r.arrival_ms + offset, r.length_tokens))
            offset += phase["duration_ms"]
        return requests
    raise ConfigError(f"unknown workload kind '{kind}'")


def _check_input_width(model, splits, path) -> None:
    if model.input_proj.in_dim != splits.train.inputs.shape[1]:
        raise ConfigError(f"checkpoint {path} takes inputs of width {model.input_proj.in_dim}, "
                          f"the task has width {splits.train.inputs.shape[1]}")


# -- commands: a parse phase under _bad_input, then a run phase ----------------------


def cmd_distill(config_path: str, seed_override: int | None, out_override: str | None) -> int:
    with _bad_input():
        config, seed, out_dir, started = _open_run(
            config_path, "distill", {"task", "teacher", "distill", "student_depth"}, {"seed"},
            seed_override, out_override)
        splits = _parse_task(config.get("task", {"kind": "gaussian"}), seed)
        tobj = config.get("teacher", {})
        _require_keys(tobj, {"depth", "rep_dim", "hidden_dim", "epochs", "learning_rate", "optimizer",
                             "checkpoint"}, set(), "teacher")
        dst.check_counts(tobj, {"depth": 1, "rep_dim": 1, "hidden_dim": 1, "epochs": 1})
        dst.check_positive(tobj, ("learning_rate",))
        optimizer = tobj.get("optimizer", nn.ADAM)
        if optimizer not in (nn.ADAM, nn.SGD):
            raise ConfigError(f"unknown optimizer '{optimizer}' in teacher")
        checkpoint = tobj.get("checkpoint")
        if checkpoint:
            teacher = nn.load_model(Path(checkpoint))
            if not isinstance(teacher, nn.TeacherModel):
                raise ConfigError("teacher checkpoint does not contain a teacher model")
            _check_input_width(teacher, splits, checkpoint)
        else:
            teacher = nn.TeacherModel.build(
                d_in=splits.train.inputs.shape[1], rep_dim=tobj.get("rep_dim", 16),
                hidden_dim=tobj.get("hidden_dim", 32), depth=tobj.get("depth", 12),
                n_classes=int(splits.train.labels.max()) + 1,
                rng=dst.rng_for(seed, "teacher-init"),
            )
        cfg = _parse_distill_cfg(config.get("distill", {}), seed, len(splits.train))
        dst.check_counts(config, {"student_depth": 2})

    if not checkpoint:
        dst.train_teacher(teacher, splits, seed=seed, **_present(tobj, "epochs", "learning_rate"),
                          optimizer_kind=optimizer)
    state, records = dst.sequential_training(teacher, splits, cfg, **_present(config, "student_depth"))

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
    with _bad_input():
        config, seed, out_dir, started = _open_run(
            config_path, "prune", {"distill_dir", "task", "distill"}, {"seed", "distill_dir"},
            seed_override, out_override)
        distill_dir = Path(config["distill_dir"])
        teacher_path = distill_dir / "teacher.json"
        ensemble_path = distill_dir / "ensemble.json"
        if not teacher_path.is_file() or not ensemble_path.is_file():
            raise ConfigError(f"missing distill checkpoints under {distill_dir}")
        teacher = nn.load_model(teacher_path)
        if not isinstance(teacher, nn.TeacherModel):
            raise ConfigError(f"{teacher_path} does not contain a teacher model")
        state = dst.load_ensemble(ensemble_path)
        if len(state) == 0:
            raise ConfigError(f"{ensemble_path} holds no students")
        splits = _parse_task(config.get("task", {"kind": "gaussian"}), seed)
        cfg = _parse_distill_cfg(config.get("distill", {}), seed, len(splits.train))
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
    with _bad_input():
        config, seed, out_dir, started = _open_run(
            config_path, "simulate", {"accuracy_table", "cluster", "factors", "workload"},
            {"seed", "workload"}, seed_override, out_override)
        table = _parse_accuracy_table(config.get("accuracy_table", {"kind": "flat", "students": 3}))
        factors = _parse_factors(config.get("factors", {}))
        cluster = _parse_cluster(config.get("cluster", {}), table)
        workload = _parse_workload(config["workload"], seed, cluster)

    metrics = sim.run_simulation(cluster, workload, factors)
    sim.write_metrics_json(metrics, out_dir / "metrics.json")
    sim.write_latency_csv(metrics.per_request, out_dir / "latencies.csv")
    _write_manifest(out_dir, config, [out_dir / "metrics.json", out_dir / "latencies.csv"], started)
    return EXIT_OK


def cmd_perf(config_path: str, seed_override: int | None, out_override: str | None) -> int:
    with _bad_input():
        config, _, out_dir, started = _open_run(config_path, "perf", {"calibration", "gpus"}, set(),
                                                seed_override, out_override)
        cal = config.get("calibration", {})
        _require_keys(cal, {"observed_latency_ms", "arrival_rps"}, set(), "calibration")
        setting = {**_present(config, "gpus"), **_present(cal, "arrival_rps")}
        model = _calibrated(cal, pm.baseline_reference(**setting))

    rows = model.factor_table(pm.reference_factor_rows(**setting))
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
    with _bad_input():
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

        comparison = [["run", "avg_latency_ms", "p95_latency_ms", "throughput_per_gpu", "completed",
                       "rank_avg_latency"]]
        comparison += [[name, fmt(d["avg_latency_ms"]), fmt(d["p95_latency_ms"]),
                        fmt(d["throughput_per_gpu"]), d["completed"], ranks.get(i, "")]
                       for i, (name, d) in enumerate(zip(names, runs))]
        long = [["time_ms", "series", "value"]]
        for name, d in zip(names, runs):
            long += [[f"{t:.6f}", f"{name}/student_number", k] for t, k in d["student_number_timeline"]]
            long += [[f"{t:.6f}", f"{name}/accuracy", f"{a:.6f}"] for t, a in d["accuracy_timeline"]]

    _write_csv(out_dir / "comparison.csv", comparison)
    _write_csv(out_dir / "long.csv", long)
    _write_manifest(out_dir, {"mode": "report", "metrics": metric_paths},
                    [out_dir / "comparison.csv", out_dir / "long.csv"], started)
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
        if args.command == "report":
            return cmd_report(args.metrics, args.out)
        # looked up at call time, so wrappers installed on this module are honoured
        command = {"distill": cmd_distill, "prune": cmd_prune, "simulate": cmd_simulate,
                   "perf": cmd_perf}[args.command]
        return command(args.config, args.seed, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
