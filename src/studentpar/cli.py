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
import math
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

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


def _require_kind(obj, kinds: dict[str, tuple[set[str], set[str]]], ctx: str) -> str:
    """The kind ``obj`` names, after checking that ``kinds`` allows that kind each of
    ``obj``'s other keys and that every key the kind requires is present."""
    _require_keys(obj, {"kind", *(key for allowed, _ in kinds.values() for key in allowed)}, {"kind"}, ctx)
    kind = obj["kind"]
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"unknown {ctx} kind '{kind}'")
    allowed, required = kinds[kind]
    _require_keys(obj, {"kind", *allowed}, required, f"{ctx} of kind '{kind}'")
    return kind


def _float_errors_raise():
    """The run phase of ``distill`` and ``prune``: a float overflow, invalid operation or
    division by zero raises FloatingPointError, which exits 3, where numpy would only
    warn and train on. ``simulate`` is not wrapped: its trace parse overflows by design
    before its loop names the line."""
    return np.errstate(over="raise", invalid="raise", divide="raise")


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
    config = nn.read_json(p, lambda data: data)
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
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _write_manifest(out_dir: Path, config, outputs: list[Path], started: float) -> None:
    nn.write_json(out_dir / "manifest.json", {
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


def _check_calibration(setting: dict) -> None:
    """The calibration keys that ``setting`` holds: ``gpus`` a count, the rate and the latency finite and > 0."""
    dst.check_counts(setting, {"gpus": 1})
    dst.check_positive(setting, ("arrival_rps", "observed_latency_ms"))


def _calibrated(cal: dict, reference: pm.PerfFactors) -> pm.PerfModel:
    model = pm.PerfModel()
    model.calibrate(reference, cal.get("observed_latency_ms", pm.REFERENCE_OBSERVED_LATENCY_MS))
    return model


def _parse_factors(obj) -> sim.ServiceFactors:
    allowed = {"depth", "width_per_student", "capacity_per_gpu", "pcie_tokens_per_ms",
               "gather_ms", "calibration"}
    _require_keys(obj, allowed, set(), "factors")
    dst.check_positive(obj, ("capacity_per_gpu", "pcie_tokens_per_ms"))
    cal = obj.get("calibration", {})
    _require_keys(cal, {"observed_latency_ms", "gpus", "arrival_rps"}, set(), "factors.calibration")
    _check_calibration(cal)
    kwargs = {"capacity" if k == "capacity_per_gpu" else k: v for k, v in obj.items() if k != "calibration"}
    reference = replace(pm.baseline_reference(**_present(cal, "gpus", "arrival_rps")),
                        **_present(kwargs, "capacity", "pcie_tokens_per_ms"))
    return sim.ServiceFactors(model=_calibrated(cal, reference), **kwargs)


# the most rows a flat accuracy table may have; it is built row by row. 1,250 times the
# stock distill config's 8 students
MAX_TABLE_STUDENTS = 10_000


def _parse_accuracy_table(obj) -> dst.AccuracyTable:
    kind = _require_kind(obj, {"csv": ({"path"}, {"path"}), "flat": ({"students", "base", "step"}, set())},
                         "accuracy_table")
    if kind == "csv":
        return dst.load_accuracy_table(Path(obj["path"]))
    dst.check_counts(obj, {"students": 1})
    students = obj.get("students", 3)
    dst.check_at_most("accuracy_table.students", students, "students", MAX_TABLE_STUDENTS)
    dst.check_finite(obj, {"base": -math.inf, "step": -math.inf})
    base, step = obj.get("base", 0.93), obj.get("step", 0.01)
    return dst.AccuracyTable([(k, min(1.0, base + step * (k - 1)), min(1.0, base + step * (k - 1)))
                              for k in range(1, students + 1)])


def _parse_cluster(obj, accuracy_table: dst.AccuracyTable) -> sim.ClusterConfig:
    allowed = {"nodes", "gpus_per_node", "group_size", "replicas_per_gpu", "bin_width",
               "num_bins", "max_merge", "pad_to_max", "batch_timeout_ms", "controller"}
    _require_keys(obj, allowed, set(), "cluster")
    ctl = obj.get("controller", {})
    _require_keys(ctl, {"idle_window_ms", "min_students", "max_students"}, set(), "cluster.controller")
    controller = sim.ControllerConfig(accuracy_table=accuracy_table,
                                      **{"max_students": len(accuracy_table), **ctl})
    return sim.ClusterConfig(controller=controller, **{k: v for k, v in obj.items() if k != "controller"})


def _check_expected_requests(specs: list[sim.PoissonSpec], key: str) -> None:
    expected = sum(spec.rps * spec.duration_ms / 1000.0 for spec in specs)
    if expected > sim.MAX_EXPECTED_REQUESTS:
        raise ConfigError(f"{key}: rps * duration_ms / 1000 expects {expected:.4g} requests, "
                          f"above the limit of {sim.MAX_EXPECTED_REQUESTS:,}")


def _parse_workload(obj, seed: int, cluster: sim.ClusterConfig) -> sim.Workload:
    kind = _require_kind(obj, {"poisson": ({"rps", "duration_ms", "length_weights"}, set()),
                               "trace": ({"path", "scale"}, {"path"}), "phases": ({"phases"}, {"phases"})},
                         "workload")
    bins = {"max_len": cluster.max_len, "bin_width": cluster.bin_width}
    if kind == "poisson":
        spec = sim.PoissonSpec(
            rps=obj.get("rps", 100.0),
            duration_ms=obj.get("duration_ms", 10_000.0),
            length_weights=obj.get("length_weights"),
        )
        _check_expected_requests([spec], "workload")
        return sim.generate_workload(spec, fork_seed(seed, "workload"), **bins)
    if kind == "trace":
        return sim.generate_workload(sim.TraceFile(Path(obj["path"]), **_present(obj, "scale")),
                                     fork_seed(seed, "workload"))
    if not (isinstance(obj["phases"], list) and obj["phases"]):
        raise ConfigError(f"workload.phases must be a non-empty list of phases, got {json.dumps(obj['phases'])[:60]}")
    specs: list[sim.PoissonSpec] = []
    for i, phase in enumerate(obj["phases"]):
        ctx = f"workload.phases[{i}]"
        _require_keys(phase, {"rps", "duration_ms"}, {"rps", "duration_ms"}, ctx)
        try:
            specs.append(sim.PoissonSpec(rps=phase["rps"], duration_ms=phase["duration_ms"]))
        except ValueError as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
    _check_expected_requests(specs, "workload.phases")
    parts: list[sim.Workload] = []
    offset, first_id = 0.0, 0
    for i, spec in enumerate(specs):
        parts.append(sim.generate_workload(spec, fork_seed(seed, f"workload-phase-{i}"), **bins,
                                           offset_ms=offset, first_id=first_id))
        offset += spec.duration_ms
        first_id += len(parts[-1])
    return sim.Workload.concatenate(parts)


def _check_fit(model, splits, path) -> None:
    """Refuse a checkpoint's model that takes inputs of another width than the task's, or a
    teacher that scores another number of classes."""
    if model.input_proj.in_dim != splits.train.inputs.shape[1]:
        raise ConfigError(f"checkpoint {path} takes inputs of width {model.input_proj.in_dim}, "
                          f"the task has width {splits.train.inputs.shape[1]}")
    if isinstance(model, nn.TeacherModel) and model.head.out_dim != splits.n_classes:
        raise ConfigError(f"checkpoint {path} scores {model.head.out_dim} classes, "
                          f"the task has {splits.n_classes}")


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
                raise ConfigError(f"{checkpoint} does not contain a teacher model")
            _check_fit(teacher, splits, checkpoint)
        else:
            dims = dict(d_in=splits.train.inputs.shape[1], rep_dim=tobj.get("rep_dim", 16),
                        hidden_dim=tobj.get("hidden_dim", 32), depth=tobj.get("depth", 12),
                        n_classes=splits.n_classes)
            dst.check_at_most("teacher.depth, rep_dim and hidden_dim", nn.TeacherModel.size(**dims),
                              "parameters", dst.MAX_MODEL_FLOATS)
            dst.check_steps("teacher.epochs", tobj.get("epochs", dst.TEACHER_EPOCHS), len(splits.train),
                            dst.TEACHER_BATCH_SIZE)
            teacher = nn.TeacherModel.build(**dims, rng=dst.rng_for(seed, "teacher-init"))
        cfg = _parse_distill_cfg(config.get("distill", {}), seed, len(splits.train))
        dst.check_counts(config, {"student_depth": 2})
        student_size = nn.StudentModel.size(splits.train.inputs.shape[1], teacher.rep_dim,
                                            config.get("student_depth", dst.STUDENT_DEPTH))
        dst.check_at_most("distill.max_students and student_depth", cfg.max_students * student_size,
                          "student parameters", dst.MAX_MODEL_FLOATS)
        dst.check_steps("distill.max_students * epochs_per_student", cfg.max_students * cfg.epochs_per_student,
                        len(splits.train), cfg.batch_size)

    with _float_errors_raise():
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
        nn.write_json(out_dir / "convergence.json", run_summary)
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
        dst.check_steps("distill.pruning_epochs", cfg.pruning_epochs, len(splits.train), cfg.batch_size)
        _check_fit(teacher, splits, teacher_path)
        for student in state.students:
            _check_fit(student, splits, ensemble_path)
            if student.rep_dim != teacher.rep_dim:
                raise ConfigError(f"{ensemble_path} holds students of width {student.rep_dim}, "
                                  f"the teacher's representation has width {teacher.rep_dim}")

    with _float_errors_raise():
        state, table, best_k = dst.adaptive_pruning(teacher, state, splits, cfg)

        dst.save_ensemble(state, out_dir / "ensemble_pruned.json")
        dst.export_accuracy_table(table, out_dir / "accuracy.csv")
        nn.write_json(out_dir / "prune_result.json", {
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
    sim.write_latency_csv(metrics.columns, out_dir / "latencies.csv")
    _write_manifest(out_dir, config, [out_dir / "metrics.json", out_dir / "latencies.csv"], started)
    return EXIT_OK


def cmd_perf(config_path: str, seed_override: int | None, out_override: str | None) -> int:
    with _bad_input():
        config, _, out_dir, started = _open_run(config_path, "perf", {"calibration", "gpus"}, set(),
                                                seed_override, out_override)
        cal = config.get("calibration", {})
        _require_keys(cal, {"observed_latency_ms", "arrival_rps"}, set(), "calibration")
        setting = {**_present(config, "gpus"), **_present(cal, "arrival_rps")}
        _check_calibration({**cal, **setting})
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


def _check_metrics(data):
    """``data``, the value of a metrics file, if it is an object with every key ``report`` reads,
    each of the right type and in range; else a ValueError naming the first that is not. Keys it
    does not read may hold anything."""
    if not isinstance(data, dict):
        raise ValueError(f"a metrics file must hold a JSON object, got {type(data).__name__}")
    missing = {"avg_latency_ms", "p95_latency_ms", "throughput_per_gpu", "completed",
               "student_number_timeline", "accuracy_timeline"} - data.keys()
    if missing:
        raise ValueError(f"metrics schema mismatch, missing {sorted(missing)}")
    figures = ("avg_latency_ms", "p95_latency_ms", "throughput_per_gpu")
    dst.check_finite({key: data[key] for key in figures if data[key] is not None},
                     dict.fromkeys(figures, -math.inf))
    dst.check_counts(data, {"completed": 0})
    for key, is_value, what in (
            ("student_number_timeline", lambda k: type(k) is int and k >= 1, "an integer k >= 1"),
            ("accuracy_timeline", lambda a: dst._is_finite_number(a) and 0 <= a <= 1, "an accuracy in [0, 1]")):
        series = data[key]
        if not (isinstance(series, list) and all(isinstance(pair, list) and len(pair) == 2
                                                 and dst._is_finite_number(pair[0]) and is_value(pair[1])
                                                 for pair in series)):
            raise ValueError(f"{key} must be a list of [finite time, {what}] pairs")
    return data


def cmd_report(metric_paths: list[str], out_override: str | None) -> int:
    started = time.monotonic()
    with _bad_input():
        if not metric_paths:
            raise ConfigError("report needs at least one metrics file")
        out_dir = Path(out_override or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        runs = []
        for path in metric_paths:
            if not Path(path).is_file():
                raise ConfigError(f"metrics file not found: {path}")
            runs.append(nn.read_json(path, _check_metrics))
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
    except (FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
