import base64
import contextlib
import csv
import io
import json
import os
import signal
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from studentpar import cli, servesim


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def small_distill_config(tmp_path, out_name="distill_out", seed=5):
    return write_config(tmp_path, "distill.json", {
        "mode": "distill",
        "seed": seed,
        "out_dir": str(tmp_path / out_name),
        "task": {"kind": "gaussian", "n_classes": 2, "d_in": 4, "n_train": 96,
                 "n_val": 48, "n_test": 48, "class_sep": 2.5},
        "teacher": {"depth": 3, "rep_dim": 8, "hidden_dim": 12, "epochs": 60},
        "distill": {"max_students": 2, "epochs_per_student": 30, "pruning_epochs": 8,
                    "batch_size": 32, "learning_rate": 3e-3},
    })


def simulate_config(tmp_path, out_name="sim_out", **workload):
    wl = {"kind": "poisson", "rps": 200.0, "duration_ms": 2000.0}
    wl.update(workload)
    return write_config(tmp_path, f"sim_{out_name}.json", {
        "mode": "simulate",
        "seed": 3,
        "out_dir": str(tmp_path / out_name),
        "accuracy_table": {"kind": "flat", "students": 3},
        "cluster": {"gpus_per_node": 4, "group_size": 3, "replicas_per_gpu": 3},
        "factors": {"depth": 2, "width_per_student": 256},
        "workload": wl,
    })


def read_manifest(out_dir):
    return json.loads((Path(out_dir) / "manifest.json").read_text())


# -- config strictness and exit codes ------------------------------------------


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "mode": "distill", "seed": 0, "out_dir": str(tmp_path / "o"), "bogus_key": 1,
    })
    assert cli.main(["distill", "--config", cfg]) == cli.EXIT_CONFIG
    assert "bogus_key" in capsys.readouterr().err


def test_unknown_nested_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad2.json", {
        "mode": "distill", "seed": 0, "out_dir": str(tmp_path / "o"),
        "distill": {"epochs_per_student": 5, "not_a_knob": True},
    })
    assert cli.main(["distill", "--config", cfg]) == cli.EXIT_CONFIG
    assert "not_a_knob" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert cli.main(["perf", "--config", str(tmp_path / "missing.json")]) == cli.EXIT_CONFIG


def test_wrong_mode_rejected(tmp_path):
    cfg = write_config(tmp_path, "m.json", {"mode": "simulate", "seed": 0, "out_dir": str(tmp_path / "o")})
    assert cli.main(["distill", "--config", cfg]) == cli.EXIT_CONFIG


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_exits_numeric(tmp_path):
    cfg = write_config(tmp_path, "diverge.json", {
        "mode": "distill", "seed": 0, "out_dir": str(tmp_path / "d"),
        "task": {"kind": "gaussian", "d_in": 4, "n_train": 64, "n_val": 32, "n_test": 32},
        "teacher": {"depth": 2, "rep_dim": 6, "hidden_dim": 8, "epochs": 40,
                    "learning_rate": 1e9, "optimizer": "sgd"},
        "distill": {"max_students": 1, "epochs_per_student": 5},
    })
    assert cli.main(["distill", "--config", cfg]) == cli.EXIT_NUMERIC


def test_training_overflow_exits_numeric(tmp_path, capsys):
    # numpy used to warn of the overflow in the stacking loss and train on to exit 0
    cfg = toy_payloads(tmp_path)["distill"]
    cfg["distill"]["lambda_stack"] = 1e300
    assert cli.main(["distill", "--config", write_config(tmp_path, "overflow.json", cfg)]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric failure" in err and "overflow" in err and "Traceback" not in err


# each of these used to end in a raw OverflowError, "int too large to convert to float", and exit 1
@pytest.mark.parametrize("mode, path, value", [
    ("perf", ("gpus",), 10**400),
    ("simulate", ("cluster", "gpus_per_node"), 10**400),
    ("simulate", ("factors", "width_per_student"), 10**400),
    ("simulate", ("factors", "capacity_per_gpu"), 1e-300),
], ids=["gpus=10**400", "gpus_per_node=10**400", "width_per_student=10**400", "capacity_per_gpu=1e-300"])
def test_arithmetic_overflow_exits_numeric(tmp_path, capsys, mode, path, value):
    cfg = toy_payloads(tmp_path)[mode]
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    assert cli.main([mode, "--config", write_config(tmp_path, "overflow.json", cfg)]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric failure" in err and "Traceback" not in err


def test_a_flat_table_of_integers_writes_float_accuracies(tmp_path):
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg["accuracy_table"] = {"kind": "flat", "students": 3, "base": 0, "step": 0}
    assert cli.main(["simulate", "--config", write_config(tmp_path, "ints.json", cfg)]) == cli.EXIT_OK
    timeline = json.loads((tmp_path / "sim_out" / "metrics.json").read_text())["accuracy_timeline"]
    assert timeline == [[0.0, 0.0]] and all(isinstance(v, float) for v in timeline[0])


# each of these used to run an empty workload and exit 0
@pytest.mark.parametrize("workload, named", [
    ({"kind": "phases"}, "missing key 'phases' in workload of kind 'phases'"),
    ({"kind": "phases", "phases": []}, "workload.phases must be a non-empty list"),
], ids=["missing", "empty"])
def test_phases_workload_needs_phases(tmp_path, capsys, workload, named):
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg["workload"] = workload
    err = assert_config_error(["simulate", "--config", write_config(tmp_path, "phases.json", cfg)], capsys)
    assert named in err, err


# -- perf -----------------------------------------------------------------------


def test_perf_writes_factor_table(tmp_path):
    cfg = write_config(tmp_path, "perf.json", {
        "mode": "perf", "out_dir": str(tmp_path / "perf_out"),
        "calibration": {"observed_latency_ms": 11.6},
    })
    assert cli.main(["perf", "--config", cfg]) == cli.EXIT_OK
    lines = (tmp_path / "perf_out" / "factors.csv").read_text().strip().splitlines()
    assert lines[0].startswith("name,D,W,B,N,M,G")
    rows = {l.split(",")[0]: float(l.split(",")[7]) for l in lines[1:]}
    assert rows["bert_base_12l"] == 11.6  # printed as 11.600
    assert rows["student_parallel_2l"] == min(rows.values())


def test_perf_infeasible_calibration_exits_config(tmp_path):
    cfg = write_config(tmp_path, "perf_bad.json", {
        "mode": "perf", "out_dir": str(tmp_path / "p"),
        "calibration": {"observed_latency_ms": 0.5},
    })
    assert cli.main(["perf", "--config", cfg]) == cli.EXIT_CONFIG


# -- distill / prune ----------------------------------------------------------------


def test_distill_outputs_and_manifest(tmp_path):
    cfg = small_distill_config(tmp_path)
    assert cli.main(["distill", "--config", cfg]) == cli.EXIT_OK
    out = tmp_path / "distill_out"
    for name in ("teacher.json", "ensemble.json", "convergence.json", "manifest.json"):
        assert (out / name).is_file()
    manifest = read_manifest(out)
    assert set(manifest["outputs"]) == {"teacher.json", "ensemble.json", "convergence.json"}
    summary = json.loads((out / "convergence.json").read_text())
    assert summary["students"] >= 1
    assert summary["records"]


def test_distill_deterministic_across_runs(tmp_path):
    cfg = small_distill_config(tmp_path, out_name="run_a")
    assert cli.main(["distill", "--config", cfg]) == cli.EXIT_OK
    assert cli.main(["distill", "--config", cfg, "--out", str(tmp_path / "run_b")]) == cli.EXIT_OK
    for name in ("teacher.json", "ensemble.json", "convergence.json"):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    ma, mb = read_manifest(tmp_path / "run_a"), read_manifest(tmp_path / "run_b")
    assert ma["outputs"] == mb["outputs"]  # content hashes identical


def test_seed_override_changes_outputs(tmp_path):
    cfg = small_distill_config(tmp_path, out_name="seed_a")
    assert cli.main(["distill", "--config", cfg]) == cli.EXIT_OK
    assert cli.main(["distill", "--config", cfg, "--seed", "6",
                     "--out", str(tmp_path / "seed_b")]) == cli.EXIT_OK
    a = (tmp_path / "seed_a" / "ensemble.json").read_bytes()
    b = (tmp_path / "seed_b" / "ensemble.json").read_bytes()
    assert a != b


def test_prune_after_distill(tmp_path):
    assert cli.main(["distill", "--config", small_distill_config(tmp_path)]) == cli.EXIT_OK
    cfg = write_config(tmp_path, "prune.json", {
        "mode": "prune", "seed": 5, "out_dir": str(tmp_path / "prune_out"),
        "distill_dir": str(tmp_path / "distill_out"),
        "task": {"kind": "gaussian", "n_classes": 2, "d_in": 4, "n_train": 96,
                 "n_val": 48, "n_test": 48, "class_sep": 2.5},
        "distill": {"max_students": 2, "epochs_per_student": 30, "pruning_epochs": 8,
                    "batch_size": 32, "learning_rate": 3e-3},
    })
    assert cli.main(["prune", "--config", cfg]) == cli.EXIT_OK
    out = tmp_path / "prune_out"
    result = json.loads((out / "prune_result.json").read_text())
    assert result["best_k"] >= 1
    acc_lines = (out / "accuracy.csv").read_text().strip().splitlines()
    assert acc_lines[0] == "k,val_acc,test_acc"
    assert len(acc_lines) == 1 + len(result["rows"])


def test_prune_missing_checkpoints_exits_config(tmp_path):
    cfg = write_config(tmp_path, "prune_bad.json", {
        "mode": "prune", "seed": 0, "out_dir": str(tmp_path / "p"),
        "distill_dir": str(tmp_path / "nonexistent"),
    })
    assert cli.main(["prune", "--config", cfg]) == cli.EXIT_CONFIG


@pytest.fixture(scope="module")
def distilled(tmp_path_factory):
    root = tmp_path_factory.mktemp("distilled")
    assert cli.main(["distill", "--config", small_distill_config(root)]) == cli.EXIT_OK
    return root / "distill_out"


def b64_floats(*values):
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


def truncate_weight(layer):
    layer["weight"] = layer["weight"][:-3]


# each corruption edits the parsed teacher.json (t) and ensemble.json (e) in place
CHECKPOINT_CORRUPTIONS = {
    "teacher-bad-schema": lambda t, e: t.update(schema="nope"),
    "teacher-truncated-base64": lambda t, e: truncate_weight(t["input_proj"]),
    "teacher-byte-count": lambda t, e: t["head"].update(bias=b64_floats(1.0)),
    "teacher-nan": lambda t, e: t["head"].update(bias=b64_floats(*[float("nan")] * t["head"]["out_dim"])),
    "teacher-missing-key": lambda t, e: t.pop("head"),
    "teacher-bad-dims": lambda t, e: t["head"].update(out_dim=-1),
    "teacher-bad-mode": lambda t, e: t.update(mode="nope"),
    "teacher-is-a-student": lambda t, e: (t.clear(), t.update(e["students"][0])),
    "teacher-blocks-not-a-list": lambda t, e: t.update(blocks=7),
    "teacher-no-blocks": lambda t, e: t.update(blocks=[]),
    "teacher-ragged-blocks": lambda t, e: t["blocks"][0].update(
        expand=e["students"][0]["layers"][0], project=e["students"][0]["layers"][1]),
    "ensemble-bad-schema": lambda t, e: e.update(schema="nope"),
    "ensemble-json-mode": lambda t, e: e.update(mode="json"),  # the decimal encoding, since removed
    "ensemble-truncated-base64": lambda t, e: truncate_weight(e["students"][0]["layers"][0]),
    "ensemble-nan-multiplier": lambda t, e: e["multipliers"].__setitem__(0, float("nan")),
    "ensemble-missing-key": lambda t, e: e.pop("multipliers"),
    "ensemble-holds-a-teacher": lambda t, e: e["students"].__setitem__(0, dict(t)),
    "ensemble-empty": lambda t, e: e.update(students=[], multipliers=[]),
    "ensemble-mixed-shapes": lambda t, e: add_deeper_student(e),
    "ensemble-non-square-layers": lambda t, e: [s["layers"].__setitem__(0, t["blocks"][0]["expand"])
                                                for s in e["students"]],
}


def add_deeper_student(e):
    """Append a copy of the first student with one more hidden layer."""
    student = json.loads(json.dumps(e["students"][0]))
    student["layers"].append(dict(student["layers"][-1]))
    e["students"].append(student)
    e["multipliers"].append(0.5)


def prune_config(tmp_path, distill_dir):
    return write_config(tmp_path, "prune.json", {
        "mode": "prune", "seed": 5, "out_dir": str(tmp_path / "prune_out"), "distill_dir": str(distill_dir),
        "task": {"kind": "gaussian", "n_classes": 2, "d_in": 4, "n_train": 96,
                 "n_val": 48, "n_test": 48, "class_sep": 2.5},
        "distill": {"pruning_epochs": 1},
    })


@pytest.mark.parametrize("corruption", list(CHECKPOINT_CORRUPTIONS))
def test_prune_corrupt_checkpoint_exits_config(tmp_path, capsys, distilled, corruption):
    teacher = json.loads((distilled / "teacher.json").read_text())
    ensemble = json.loads((distilled / "ensemble.json").read_text())
    CHECKPOINT_CORRUPTIONS[corruption](teacher, ensemble)
    bad = tmp_path / "bad_distill"
    bad.mkdir()
    (bad / "teacher.json").write_text(json.dumps(teacher))
    (bad / "ensemble.json").write_text(json.dumps(ensemble))
    assert cli.main(["prune", "--config", prune_config(tmp_path, bad)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert str(bad / f"{corruption.split('-')[0]}.json") in err  # the corrupted file, by name


@pytest.mark.parametrize("name", ["teacher.json", "ensemble.json"])
def test_prune_truncated_checkpoint_names_the_file(tmp_path, capsys, distilled, name):
    bad = tmp_path / "bad_distill"
    bad.mkdir()
    for checkpoint in ("teacher.json", "ensemble.json"):
        (bad / checkpoint).write_bytes((distilled / checkpoint).read_bytes())
    (bad / name).write_bytes((distilled / name).read_bytes()[:100])
    assert cli.main(["prune", "--config", prune_config(tmp_path, bad)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"config error: {bad / name}: Expecting ")


# nested past the depth that json's decoder can recurse to; each used to exit 1 with a RecursionError
NESTED_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("mode", ["perf", "report"])
def test_a_deeply_nested_json_input_names_its_file(tmp_path, capsys, mode):
    path = tmp_path / "nested.json"
    path.write_text(NESTED_JSON)
    argv = ["perf", "--config", str(path)] if mode == "perf" else ["report", str(path), "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"config error: {path}: JSON nested too deeply to decode\n"


# each of these used to exit 2 with the decoder's message alone, naming no file
@pytest.mark.parametrize("mode", ["perf", "report"])
def test_a_truncated_json_input_names_its_file(tmp_path, capsys, mode):
    path = tmp_path / "truncated.json"
    if mode == "perf":
        path.write_text(json.dumps(toy_payloads(tmp_path)["perf"])[:17])
        argv = ["perf", "--config", str(path)]
    else:
        path.write_text("[1,")
        argv = ["report", str(path), "--out", str(tmp_path)]
    err = assert_config_error(argv, capsys)
    assert err.startswith(f"config error: {path}: Expecting "), err


@pytest.mark.parametrize("name", ["teacher.json", "ensemble.json"])
def test_prune_deeply_nested_checkpoint_names_the_file(tmp_path, capsys, distilled, name):
    bad = tmp_path / "bad_distill"
    bad.mkdir()
    for checkpoint in ("teacher.json", "ensemble.json"):
        (bad / checkpoint).write_bytes((distilled / checkpoint).read_bytes())
    (bad / name).write_text(NESTED_JSON)
    assert cli.main(["prune", "--config", prune_config(tmp_path, bad)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"config error: {bad / name}: JSON nested too deeply to decode\n"


def test_prune_mixed_shape_ensemble_names_the_file(tmp_path, capsys, distilled):
    ensemble = json.loads((distilled / "ensemble.json").read_text())
    add_deeper_student(ensemble)
    bad = tmp_path / "bad_distill"
    bad.mkdir()
    (bad / "teacher.json").write_bytes((distilled / "teacher.json").read_bytes())
    (bad / "ensemble.json").write_text(json.dumps(ensemble))
    assert cli.main(["prune", "--config", prune_config(tmp_path, bad)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"config error: {bad / 'ensemble.json'}: students differ in shape: student ")
    assert not (tmp_path / "prune_out" / "ensemble_pruned.json").exists()


def test_prune_task_width_mismatch_exits_config(tmp_path, capsys, distilled):
    cfg = write_config(tmp_path, "prune.json", {
        "mode": "prune", "seed": 5, "out_dir": str(tmp_path / "prune_out"),
        "distill_dir": str(distilled), "task": {"kind": "gaussian", "d_in": 5},
    })
    assert cli.main(["prune", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "width" in err and "Traceback" not in err


# each of these used to exit 0, scoring a 3-class task with a 2-class teacher
def test_prune_task_class_count_mismatch_exits_config(tmp_path, capsys, distilled):
    cfg = json.loads(Path(prune_config(tmp_path, distilled)).read_text())
    cfg["task"]["n_classes"] = 3
    err = assert_config_error(["prune", "--config", write_config(tmp_path, "prune.json", cfg)], capsys)
    assert err == f"config error: checkpoint {distilled / 'teacher.json'} scores 2 classes, the task has 3\n"
    assert not (tmp_path / "prune_out" / "accuracy.csv").exists()


def test_distill_teacher_checkpoint_class_count_mismatch_exits_config(tmp_path, capsys, distilled):
    cfg = json.loads(Path(small_distill_config(tmp_path)).read_text())
    cfg["task"]["n_classes"] = 3
    cfg["teacher"] = {"checkpoint": str(distilled / "teacher.json")}
    err = assert_config_error(["distill", "--config", write_config(tmp_path, "distill.json", cfg)], capsys)
    assert err == f"config error: checkpoint {distilled / 'teacher.json'} scores 2 classes, the task has 3\n"
    assert not (tmp_path / "distill_out" / "convergence.json").exists()


@pytest.mark.parametrize("corruption", ["teacher-truncated-base64", "teacher-bad-schema",
                                        "teacher-is-a-student"])
def test_distill_corrupt_teacher_checkpoint_exits_config(tmp_path, capsys, distilled, corruption):
    teacher = json.loads((distilled / "teacher.json").read_text())
    ensemble = json.loads((distilled / "ensemble.json").read_text())
    CHECKPOINT_CORRUPTIONS[corruption](teacher, ensemble)
    (tmp_path / "teacher.json").write_text(json.dumps(teacher))
    cfg_path = small_distill_config(tmp_path)
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["teacher"] = {"checkpoint": str(tmp_path / "teacher.json")}
    Path(cfg_path).write_text(json.dumps(cfg))
    assert cli.main(["distill", "--config", cfg_path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {tmp_path / 'teacher.json'}") and "Traceback" not in err


def test_distill_refuses_a_decimal_teacher_checkpoint(tmp_path, capsys, distilled):
    """A checkpoint has one encoding, base64 float64, recorded as "mode": "binary"; a file
    that claims the removed decimal "json" mode is refused by name."""
    teacher = json.loads((distilled / "teacher.json").read_text())
    teacher["mode"] = "json"
    (tmp_path / "teacher.json").write_text(json.dumps(teacher))
    cfg_path = small_distill_config(tmp_path)
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["teacher"] = {"checkpoint": str(tmp_path / "teacher.json")}
    Path(cfg_path).write_text(json.dumps(cfg))
    assert "unknown checkpoint mode 'json'" in assert_config_error(["distill", "--config", cfg_path], capsys)


@pytest.mark.parametrize("mode", ["distill", "prune"])
@pytest.mark.parametrize("knob, value", [
    ("batch_size", 0), ("batch_size", 1.5), ("learning_rate", -1), ("learning_rate", 0),
    ("max_students", 0), ("epochs_per_student", 0), ("pruning_epochs", -1),
    ("soft_ce_temperature", float("inf")), ("lambda_stack", float("nan")), ("lambda_stack", float("inf")),
    ("lambda_stack", "x"), ("min_improvement", None),
])
def test_invalid_distill_knobs_exit_config(tmp_path, capsys, distilled, mode, knob, value):
    if mode == "distill":
        cfg_path = small_distill_config(tmp_path)
        cfg = json.loads(Path(cfg_path).read_text())
    else:
        cfg_path = str(tmp_path / "prune.json")
        cfg = {"mode": "prune", "seed": 5, "out_dir": str(tmp_path / "prune_out"),
               "distill_dir": str(distilled), "distill": {"pruning_epochs": 1}}
    cfg["distill"][knob] = value
    Path(cfg_path).write_text(json.dumps(cfg))
    assert cli.main([mode, "--config", cfg_path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and knob in err and "Traceback" not in err


# -- simulate -------------------------------------------------------------------------


def test_simulate_writes_metrics_and_latencies(tmp_path):
    cfg = simulate_config(tmp_path)
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_OK
    out = tmp_path / "sim_out"
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["completed"] > 0
    lat_lines = (out / "latencies.csv").read_text().strip().splitlines()
    assert lat_lines[0] == "request_id,arrival_ms,completion_ms,latency_ms,length_tokens"
    assert len(lat_lines) == 1 + metrics["completed"]


def test_simulate_empty_workload_null_metrics(tmp_path):
    cfg = simulate_config(tmp_path, out_name="empty", rps=1e-9, duration_ms=1.0)
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_OK
    metrics = json.loads((tmp_path / "empty" / "metrics.json").read_text())
    assert metrics["completed"] == 0
    assert metrics["avg_latency_ms"] is None
    assert metrics["p95_latency_ms"] is None


def test_simulate_deterministic(tmp_path):
    cfg = simulate_config(tmp_path, out_name="det_a")
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_OK
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "det_b")]) == cli.EXIT_OK
    for name in ("metrics.json", "latencies.csv"):
        assert (tmp_path / "det_a" / name).read_bytes() == (tmp_path / "det_b" / name).read_bytes()


def test_simulate_bad_trace_exits_config(tmp_path):
    trace = tmp_path / "broken.csv"
    trace.write_text("arrival_ms,length_tokens\nabc,1\n")
    cfg = write_config(tmp_path, "sim_trace.json", {
        "mode": "simulate", "seed": 0, "out_dir": str(tmp_path / "t"),
        "workload": {"kind": "trace", "path": str(trace)},
    })
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("scale, arrival, named", [
    (float("inf"), "1.5", "scale"),
    (float("nan"), "1.5", "scale"),
    (-1.0, "1.5", "scale"),
    ("x", "1.5", "scale"),
    (1.0, "inf", "trace line 4"),
    (1.0, "nan", "trace line 4"),
    (1.0, "-inf", "trace line 2"),
    (10.0, "1e308", "trace line 4"),
])
def test_simulate_non_finite_trace_exits_config(tmp_path, capsys, scale, arrival, named):
    # the infinite cases used to hang, the others to exit 0 with NaN or reversed arrivals,
    # and a finite time that overflows once scaled to end in a traceback
    trace = tmp_path / "trace.csv"
    rows = [f"{arrival},8", "0.5,4"] if arrival == "-inf" else ["0.5,4", "1.5,16", f"{arrival},8"]
    trace.write_text("arrival_ms,length_tokens\n" + "\n".join(rows) + "\n")
    cfg_path = simulate_config(tmp_path, out_name="trace_bad")
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["workload"] = {"kind": "trace", "path": str(trace), "scale": scale}
    assert named in assert_config_error(["simulate", "--config", write_config(tmp_path, "t.json", cfg)], capsys)


def test_a_trace_length_past_int64_exits_config(tmp_path, capsys):
    # the streaming loop used to take it as a Python int, which no int64 column holds
    trace = tmp_path / "trace.csv"
    trace.write_text(f"arrival_ms,length_tokens\n0.5,{2**63}\n1.5,4\n")
    cfg_path = simulate_config(tmp_path, out_name="trace_long")
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["workload"] = {"kind": "trace", "path": str(trace)}
    err = assert_config_error(["simulate", "--config", write_config(tmp_path, "t.json", cfg)], capsys)
    assert "trace line 2" in err and str(2**63) in err


@pytest.mark.parametrize("arrival, code", [("-1e300", cli.EXIT_NUMERIC), ("-9007199254740991", cli.EXIT_OK)])
def test_arrivals_at_or_below_minus_2_53_ms_exit_numeric(tmp_path, capsys, arrival, code):
    """At -1e300 ms the run used to exit 0, with latencies of 0 where a 0.69 ms service
    time was rounded away; -(2**53 - 1) ms still has integer resolution."""
    trace = tmp_path / "trace.csv"
    trace.write_text(f"arrival_ms,length_tokens\n{arrival},8\n0.5,4\n")
    cfg_path = simulate_config(tmp_path, out_name="trace_early")
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["workload"] = {"kind": "trace", "path": str(trace)}
    assert cli.main(["simulate", "--config", write_config(tmp_path, "t.json", cfg)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == cli.EXIT_NUMERIC:
        assert "numeric failure" in err and "2**53" in err
    else:
        assert len(read_csv(tmp_path / "trace_early" / "latencies.csv")) == 3


@pytest.mark.parametrize("section, value", [
    ("cluster", {"controller": {"min_students": 0}}),
    ("workload", {"kind": "poisson", "rps": 0}),
    ("workload", {"kind": "phases", "phases": [{"rps": 0, "duration_ms": 100.0}]}),
])
def test_simulate_invalid_values_exit_config(tmp_path, capsys, section, value):
    cfg_path = simulate_config(tmp_path, out_name="invalid")
    cfg = json.loads(Path(cfg_path).read_text())
    cfg[section] = value
    Path(cfg_path).write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", cfg_path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


# -- report ---------------------------------------------------------------------------


def fake_metrics(path, avg, p95=None, completed=100):
    path.write_text(json.dumps({
        "avg_latency_ms": avg,
        "p95_latency_ms": p95 if p95 is not None else avg * 1.2,
        "throughput_per_gpu": 1000.0 / avg,
        "completed": completed,
        "student_number_timeline": [[0.0, 3]],
        "accuracy_timeline": [[0.0, 0.95]],
    }, indent=1))


def test_report_single_input_pass_through(tmp_path):
    m = tmp_path / "only.json"
    fake_metrics(m, avg=2.5)
    out = tmp_path / "rep"
    assert cli.main(["report", str(m), "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "comparison.csv").read_text().strip().splitlines()
    assert lines[0] == "run,avg_latency_ms,p95_latency_ms,throughput_per_gpu,completed,rank_avg_latency"
    assert lines[1].startswith("only,2.500000")
    assert lines[1].endswith(",1")
    long_lines = (out / "long.csv").read_text().strip().splitlines()
    assert long_lines[0] == "time_ms,series,value"
    assert any("only/student_number" in l for l in long_lines)


def test_report_quartet_ranks(tmp_path):
    names_avgs = [("studentpar", 2.8), ("four_layer", 4.5), ("with_padding", 5.1), ("with_queue", 7.5)]
    paths = []
    for name, avg in names_avgs:
        p = tmp_path / f"{name}.json"
        fake_metrics(p, avg=avg)
        paths.append(str(p))
    out = tmp_path / "rep4"
    assert cli.main(["report", *paths, "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "comparison.csv").read_text().strip().splitlines()[1:]
    ranks = {l.split(",")[0]: int(l.split(",")[5]) for l in lines}
    assert ranks == {"studentpar": 1, "four_layer": 2, "with_padding": 3, "with_queue": 4}


def test_report_identical_runs_identical_rows(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    fake_metrics(a, avg=3.0)
    fake_metrics(b, avg=3.0)
    out = tmp_path / "rep2"
    assert cli.main(["report", str(a), str(b), "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "comparison.csv").read_text().strip().splitlines()[1:]
    cols_a = lines[0].split(",")[1:5]
    cols_b = lines[1].split(",")[1:5]
    assert cols_a == cols_b


def test_report_schema_mismatch_exits_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"avg_latency_ms": 1.0}))
    assert cli.main(["report", str(bad)]) == cli.EXIT_CONFIG


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_report_names_colliding_runs_by_their_parent_dirs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b" / "a").mkdir(parents=True)
    fake_metrics(tmp_path / "a" / "metrics.json", avg=3.0)
    fake_metrics(tmp_path / "b" / "a" / "metrics.json", avg=2.0)
    fake_metrics(tmp_path / "c.json", avg=2.5)
    out = tmp_path / "rep"
    paths = [tmp_path / "a" / "metrics.json", tmp_path / "b" / "a" / "metrics.json", tmp_path / "c.json"]
    assert cli.main(["report", *map(str, paths), "--out", str(out)]) == cli.EXIT_OK
    rows = read_csv(out / "comparison.csv")[1:]
    assert [(r[0], r[5]) for r in rows] == [(f"{tmp_path.name}/a", "3"), ("b/a", "1"), ("c", "2")]
    series = {r[1] for r in read_csv(out / "long.csv")[1:]}
    assert series == {f"{name}/{s}" for name in (f"{tmp_path.name}/a", "b/a", "c")
                      for s in ("student_number", "accuracy")}


def test_report_same_file_twice_gets_distinct_names_and_ranks(tmp_path):
    m = tmp_path / "x.json"
    fake_metrics(m, avg=3.0)
    out = tmp_path / "rep"
    assert cli.main(["report", str(m), str(m), "--out", str(out)]) == cli.EXIT_OK
    rows = read_csv(out / "comparison.csv")[1:]
    assert [(r[0], r[5]) for r in rows] == [("x", "1"), ("x#2", "2")]


def test_report_escapes_names_with_commas_and_quotes(tmp_path):
    m = tmp_path / 'run,one "fast".json'
    fake_metrics(m, avg=2.5, completed=7)
    out = tmp_path / "rep"
    assert cli.main(["report", str(m), "--out", str(out)]) == cli.EXIT_OK
    rows = read_csv(out / "comparison.csv")
    assert rows[1] == ['run,one "fast"', "2.500000", "3.000000", "400.000000", "7", "1"]
    long_rows = read_csv(out / "long.csv")
    assert long_rows[1] == ["0.000000", 'run,one "fast"/student_number', "3"]
    assert long_rows[2] == ["0.000000", 'run,one "fast"/accuracy', "0.950000"]


def test_report_writes_manifest(tmp_path):
    m = tmp_path / "only.json"
    fake_metrics(m, avg=2.5)
    out = tmp_path / "rep"
    assert cli.main(["report", str(m), "--out", str(out)]) == cli.EXIT_OK
    manifest = read_manifest(out)
    assert manifest["config"] == {"mode": "report", "metrics": [str(m)]}
    assert set(manifest["outputs"]) == {"comparison.csv", "long.csv"}
    assert manifest["duration_ms"] >= 0.0


# -- one contract for bad input: exit 2, "config error", no traceback -------------------


def toy_payloads(tmp_path):
    """One stock-shaped toy config per mode."""
    return {
        "distill": json.loads(Path(small_distill_config(tmp_path)).read_text()),
        "simulate": json.loads(Path(simulate_config(tmp_path)).read_text()),
        "perf": {"mode": "perf", "out_dir": str(tmp_path / "perf_out"), "gpus": 4,
                 "calibration": {"observed_latency_ms": 11.6, "arrival_rps": 2000}},
    }


BAD_INPUTS = [
    ("distill", ("task", "n_classes"), 9),
    ("distill", ("task", "n_train"), "x"),
    ("distill", ("task", "n_train"), 0),
    ("distill", ("task", "class_sep"), "a"),
    ("distill", ("teacher", "depth"), "a"),
    ("distill", ("teacher", "rep_dim"), 0),
    ("distill", ("teacher", "learning_rate"), -1),
    ("distill", ("teacher", "hidden_dim"), 1.5),
    ("distill", ("teacher", "epochs"), "x"),
    ("distill", ("student_depth",), 1),
    ("distill", ("student_depth",), "x"),
    ("distill", ("teacher",), 3),
    ("distill", ("distill",), None),
    ("simulate", ("factors", "depth"), 0),
    ("simulate", ("factors", "width_per_student"), "x"),
    ("simulate", ("factors", "gather_ms"), -1),
    ("simulate", ("factors", "gather_ms"), "x"),
    ("simulate", ("factors", "gather_ms"), True),
    ("simulate", ("factors", "gather_ms"), float("inf")),
    ("simulate", ("factors", "capacity_per_gpu"), 0),
    ("simulate", ("factors", "pcie_tokens_per_ms"), 0),
    ("simulate", ("factors", "calibration"), []),
    ("simulate", ("accuracy_table", "students"), "x"),
    ("simulate", ("cluster",), []),
    ("perf", ("gpus",), "x"),
    ("perf", ("calibration", "arrival_rps"), "x"),
    ("perf", ("calibration",), []),
    # checked in the parse phase too, not first met mid-run
    ("simulate", ("cluster", "nodes"), 1.5),
    ("simulate", ("cluster", "controller"), {"idle_window_ms": "x"}),
    ("simulate", ("cluster", "batch_timeout_ms"), -1),
    ("distill", ("distill",), {"subsample_top_pct": 0, "subsample_rand_pct": 0}),
    ("distill", ("distill",), {"overfit_patience": "x"}),
    ("distill", ("distill",), {"min_improvement": None}),
    # the seed must be a non-negative int
    ("simulate", ("seed",), "x"),
    ("simulate", ("seed",), 1.5),
    ("simulate", ("seed",), None),
    ("simulate", ("seed",), True),
    ("perf", ("seed",), -1),
    # a non-finite rate or duration used to hang or give NaN latencies
    ("simulate", ("workload", "rps"), float("inf")),
    ("simulate", ("workload", "rps"), float("nan")),
    ("simulate", ("workload", "duration_ms"), float("inf")),
    ("simulate", ("workload", "duration_ms"), float("nan")),
    ("simulate", ("workload",), {"kind": "phases", "phases": [{"rps": 200.0, "duration_ms": float("inf")}]}),
    ("simulate", ("workload",), {"kind": "phases", "phases": [{"rps": 200.0, "duration_ms": float("nan")}]}),
    # numpy would draw lengths from 64-bit words at this width
    ("simulate", ("cluster", "bin_width"), 2**32 + 1),
    # a negative duration used to give an empty run, or shift the next phase's arrivals below 0
    ("simulate", ("workload", "duration_ms"), -5),
    ("simulate", ("workload",), {"kind": "phases", "phases": [{"rps": 200.0, "duration_ms": -1000.0},
                                                              {"rps": 200.0, "duration_ms": 1000.0}]}),
    ("simulate", ("workload", "rps"), "x"),
    ("simulate", ("workload", "duration_ms"), "x"),
    # non-finite or non-numeric training knobs used to train on them, or fail mid-run
    ("distill", ("task", "class_sep"), float("nan")),
    ("distill", ("distill",), {"soft_ce_temperature": float("inf")}),
    ("distill", ("distill",), {"lambda_stack": float("nan")}),
    ("distill", ("distill",), {"lambda_stack": float("inf")}),
    ("distill", ("distill",), {"lambda_stack": "x"}),
    ("simulate", ("factors", "capacity_per_gpu"), "x"),
    ("simulate", ("factors", "capacity_per_gpu"), float("nan")),
    ("perf", ("calibration", "observed_latency_ms"), float("nan")),
    ("simulate", ("accuracy_table", "base"), "x"),
    # an endless timeout (or idle window, below) used to beat heartbeats forever
    ("simulate", ("cluster", "batch_timeout_ms"), float("inf")),
    # sizes that would allocate without bound, refused while parsing
    ("simulate", ("workload", "rps"), 1e12),
    ("simulate", ("cluster", "nodes"), 10**9),
    ("distill", ("task", "n_train"), 10**12),
    ("distill", ("task", "d_in"), 10**12),
    ("distill", ("teacher", "hidden_dim"), 10**9),
    ("distill", ("teacher", "epochs"), 10**9),
    ("distill", ("distill", "epochs_per_student"), 10**9),
    ("distill", ("student_depth",), 10**9),
    ("simulate", ("accuracy_table", "students"), 10**12),
]


def assert_config_error(argv, capsys):
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    return err


@pytest.mark.parametrize("mode, path, value", BAD_INPUTS,
                         ids=[f"{m}-{'.'.join(p)}={v!r}" for m, p, v in BAD_INPUTS])
def test_bad_input_exits_config(tmp_path, capsys, mode, path, value):
    cfg = toy_payloads(tmp_path)[mode]
    section = cfg
    for key in path[:-1]:
        section = section[key]
    was_object = isinstance(section.get(path[-1]), dict)
    section[path[-1]] = value
    err = assert_config_error([mode, "--config", write_config(tmp_path, "bad.json", cfg)], capsys)
    if was_object and not isinstance(value, dict):
        assert f"{'.'.join(path)} must be a JSON object" in err


@pytest.mark.parametrize("mode, path, value", [
    ("distill", ("task", "class_sep"), float("nan")),
    ("distill", ("task", "class_sep"), "a"),
    ("distill", ("task", "n_classes"), 3.0),
    ("distill", ("task", "n_classes"), "x"),
    ("distill", ("task", "n_classes"), None),
    ("simulate", ("factors", "capacity_per_gpu"), 0),
    ("simulate", ("factors", "capacity_per_gpu"), "x"),
    ("simulate", ("factors", "capacity_per_gpu"), float("nan")),
    ("simulate", ("factors", "pcie_tokens_per_ms"), "x"),
    ("simulate", ("factors", "calibration", "observed_latency_ms"), float("nan")),
    ("simulate", ("accuracy_table", "students"), "x"),
    ("simulate", ("cluster", "controller", "idle_window_ms"), "x"),
    ("simulate", ("cluster", "controller", "idle_window_ms"), float("inf")),
    ("simulate", ("cluster", "batch_timeout_ms"), "x"),
    ("perf", ("gpus",), "x"),
    ("perf", ("calibration", "arrival_rps"), "x"),
], ids=repr)
def test_bad_number_names_the_key(tmp_path, capsys, mode, path, value):
    cfg = toy_payloads(tmp_path)[mode]
    section = cfg
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    err = assert_config_error([mode, "--config", write_config(tmp_path, "bad.json", cfg)], capsys)
    assert f"{path[-1]} must be" in err, err


@pytest.mark.parametrize("payload", [[1, 2], {
    "avg_latency_ms": "fast", "p95_latency_ms": 1.0, "throughput_per_gpu": 1.0, "completed": 1,
    "student_number_timeline": [], "accuracy_timeline": []}], ids=["list", "string-latency"])
def test_report_malformed_metrics_exits_config(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert_config_error(["report", str(bad), "--out", str(tmp_path / "rep")], capsys)


# each of these used to exit 2 with "'list' object has no attribute 'keys'", naming no file
@pytest.mark.parametrize("payload, kind", [([], "list"), ("x", "str"), (None, "NoneType"), (3, "int")], ids=repr)
def test_report_names_a_metrics_file_that_holds_no_object(tmp_path, capsys, payload, kind):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    err = assert_config_error(["report", str(bad), "--out", str(tmp_path / "rep")], capsys)
    assert f"{bad}: a metrics file must hold a JSON object, got {kind}" in err, err


# each of these used to exit 0 and be written into comparison.csv or long.csv
@pytest.mark.parametrize("key, value", [
    ("completed", "lots"), ("completed", -5), ("completed", 1.5), ("completed", True),
    ("student_number_timeline", [[0.0, "x"]]), ("student_number_timeline", [[0.0, 0]]),
    ("student_number_timeline", [[0.0, 3.0]]), ("student_number_timeline", [["x", 3]]),
    ("student_number_timeline", [[0.0]]), ("student_number_timeline", "x"),
    ("avg_latency_ms", True), ("avg_latency_ms", float("nan")), ("p95_latency_ms", float("inf")),
    ("throughput_per_gpu", [1.0]), ("accuracy_timeline", [[0.0, 7.0]]), ("accuracy_timeline", [[0.0, -0.1]]),
    ("accuracy_timeline", [[float("nan"), 0.9]]), ("accuracy_timeline", {}),
], ids=repr)
def test_report_bad_metric_value_names_the_file_and_key(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    fake_metrics(bad, avg=2.5)
    data = json.loads(bad.read_text())
    data[key] = value
    bad.write_text(json.dumps(data))
    err = assert_config_error(["report", str(bad), "--out", str(tmp_path / "rep")], capsys)
    assert f"{bad}: {key}" in err, err


def test_report_reads_null_figures_and_ignores_extra_keys(tmp_path):
    m = tmp_path / "m.json"
    fake_metrics(m, avg=2.5)
    data = json.loads(m.read_text())
    data.update(avg_latency_ms=None, throughput_per_gpu=None, generated="anything", completed=0)
    m.write_text(json.dumps(data))
    assert cli.main(["report", str(m), "--out", str(tmp_path / "rep")]) == cli.EXIT_OK
    assert read_csv(tmp_path / "rep" / "comparison.csv")[1][1:] == ["", "3.000000", "", "0", ""]


# each of these used to run, ignoring the key
@pytest.mark.parametrize("section, value, named", [
    ("workload", {"kind": "trace", "path": "trace.csv", "rps": 9e9, "phases": "junk", "length_weights": "junk"},
     "unknown key 'rps' in workload of kind 'trace'"),
    ("workload", {"kind": "poisson", "scale": -3, "path": 7}, "unknown key 'scale' in workload of kind 'poisson'"),
    ("workload", {"kind": "phases", "phases": [{"rps": 200.0, "duration_ms": 100.0}], "length_weights": [1, 2]},
     "unknown key 'length_weights' in workload of kind 'phases'"),
    ("workload", {"kind": "trace"}, "missing key 'path' in workload of kind 'trace'"),
    ("workload", {"kind": "open"}, "unknown workload kind 'open'"),
    ("workload", {"kind": ["poisson"]}, "unknown workload kind"),
    ("accuracy_table", {"kind": "flat", "path": "nope.csv"}, "unknown key 'path' in accuracy_table of kind 'flat'"),
    ("accuracy_table", {"kind": "csv", "students": 3}, "unknown key 'students' in accuracy_table of kind 'csv'"),
    ("accuracy_table", {"kind": "csv"}, "missing key 'path' in accuracy_table of kind 'csv'"),
], ids=repr)
def test_a_key_of_another_kind_is_refused(tmp_path, capsys, section, value, named):
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg[section] = value
    err = assert_config_error(["simulate", "--config", write_config(tmp_path, "kind.json", cfg)], capsys)
    assert named in err, err


@pytest.mark.parametrize("text, named", [
    ("k,val_acc,test_acc\n1,0.9,0.9\n2,x,0.9\n", "line 3: could not convert string to float: 'x'"),
    ("k,val_acc,test_acc\n1,0.9,0.9,0.5\n", "line 2: expected 3 fields"),
    ("k,val_acc,test_acc\n1,0.9\n", "line 2: expected 3 fields"),
    ("k,val,test\n1,0.9,0.9\n", "line 1: expected header k,val_acc,test_acc"),
    ("k,val_acc,test_acc\n1,0.9,0.9\n3,0.9,0.9\n", "line 3: k must run 1..M with no gaps"),
    ("k,val_acc,test_acc\n1," + "9" * 200_000 + ",0.9\n", "line 2: field larger than field limit"),
], ids=["bad-value", "extra-column", "short-row", "wrong-header", "gap-in-k", "field-past-csv-limit"])
def test_a_malformed_accuracy_table_names_its_file_and_line(tmp_path, capsys, text, named):
    table = tmp_path / "accuracy.csv"
    table.write_text(text)
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg["accuracy_table"] = {"kind": "csv", "path": str(table)}
    err = assert_config_error(["simulate", "--config", write_config(tmp_path, "table.json", cfg)], capsys)
    assert err.startswith(f"config error: {table}: {named}"), err


def test_seed_flag_must_be_non_negative(tmp_path, capsys):
    cfg = simulate_config(tmp_path)
    err = assert_config_error(["simulate", "--config", cfg, "--seed", "-1"], capsys)
    assert "seed" in err


# a falsy value that is not a list used to run with the default weights
@pytest.mark.parametrize("weights", [[1, -1], [0, 0], [1, "NaN"], [True, 1], "x", [1, "x"], 1.5,
                                     False, 0, "", {}], ids=repr)
def test_bad_length_weights_name_the_key(tmp_path, capsys, weights):
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg["workload"]["length_weights"] = weights
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(cfg).replace('"NaN"', "NaN"))  # json.loads reads NaN as a float
    assert "length_weights" in assert_config_error(["simulate", "--config", str(path)], capsys)


@pytest.mark.parametrize("workload, named", [
    ({"kind": "poisson", "duration_ms": -5}, ["duration_ms", "-5"]),
    ({"kind": "poisson", "duration_ms": "x"}, ["duration_ms", "'x'"]),
    ({"kind": "poisson", "rps": "x"}, ["rps", "'x'"]),
    ({"kind": "phases", "phases": [{"rps": 200.0, "duration_ms": 100.0}, {"rps": 200.0, "duration_ms": -1000.0}]},
     ["workload.phases[1]", "duration_ms", "-1000.0"]),
    ({"kind": "phases", "phases": [{"rps": "x", "duration_ms": 100.0}]}, ["workload.phases[0]", "rps", "'x'"]),
], ids=repr)
def test_bad_rate_or_duration_names_the_key(tmp_path, capsys, workload, named):
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg["workload"] = workload
    err = assert_config_error(["simulate", "--config", write_config(tmp_path, "rate.json", cfg)], capsys)
    assert all(name in err for name in named), err


@pytest.mark.parametrize("section, value, named", [
    ("workload", {"kind": "poisson", "rps": 1e12}, ["workload:", "rps * duration_ms", "1e+13", "10,000,000"]),
    ("workload", {"kind": "poisson", "rps": 1e300, "duration_ms": 1e300}, ["workload:", "inf requests"]),
    # each phase expects 6e6 requests, under the limit; together they pass it
    ("workload", {"kind": "phases", "phases": [{"rps": 1e6, "duration_ms": 6000.0}] * 2},
     ["workload.phases:", "1.2e+07", "10,000,000"]),
    ("cluster", {"nodes": 10**9}, ["nodes must be <= 4096", "1000000000"]),
], ids=["rps", "overflow", "phases-summed", "nodes"])
def test_runaway_sizes_exit_config_before_allocating(tmp_path, capsys, monkeypatch, section, value, named):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(cli.sim, "generate_workload", refuse)
    monkeypatch.setattr(cli.sim, "Simulation", refuse)
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg[section] = {**cfg[section], **value} if section == "cluster" else value
    err = assert_config_error(["simulate", "--config", write_config(tmp_path, "big.json", cfg)], capsys)
    assert all(name in err for name in named), err


def test_size_limits_lie_far_above_the_stock_and_benchmark_runs():
    stock = json.loads((Path(__file__).resolve().parent.parent / "configs" / "simulate.json").read_text())
    stock_requests = sum(p["rps"] * p["duration_ms"] / 1000 for p in stock["workload"]["phases"])
    fanout_requests = 32_000 * 2_500 / 1000  # perfbench's serve-fanout: 32k rps for 2.5 s on 32 nodes
    assert cli.sim.MAX_EXPECTED_REQUESTS >= 100 * max(stock_requests, fanout_requests)
    assert cli.sim.MAX_NODES >= 64 * 64  # perfbench's --scan-nodes reaches 64 nodes


def rewrapped_phases(phases, seed, cluster):
    """Each phase drawn on its own and then renumbered and shifted by the phases
    before it, the two-pass form kept as the oracle of ``_parse_workload``."""
    requests, offset = [], 0.0
    for i, phase in enumerate(phases):
        spec = cli.sim.PoissonSpec(rps=phase["rps"], duration_ms=phase["duration_ms"])
        for r in cli.sim.generate_workload(spec, cli.fork_seed(seed, f"workload-phase-{i}"),
                                           max_len=cluster.max_len, bin_width=cluster.bin_width).requests():
            requests.append(cli.sim.Request(len(requests), r.arrival_ms + offset, r.length_tokens))
        offset += phase["duration_ms"]
    return requests


@pytest.mark.parametrize("seed", [0, 3])
def test_phases_are_drawn_in_one_pass(seed):
    stock = json.loads((Path(__file__).resolve().parent.parent / "configs" / "simulate.json").read_text())
    cluster = cli._parse_cluster(stock["cluster"], cli._parse_accuracy_table({"kind": "flat", "students": 3}))
    got = cli._parse_workload(stock["workload"], seed, cluster)
    want = rewrapped_phases(stock["workload"]["phases"], seed, cluster)
    assert len(got) == len(want) > 60_000
    assert got.request_id.tolist() == [r.id for r in want] == list(range(len(want)))
    assert [t.hex() for t in got.arrival_ms.tolist()] == [r.arrival_ms.hex() for r in want]
    assert got.length_tokens.tolist() == [r.length_tokens for r in want]


# the most bytes one simulate job may hold at its peak, per request: the workload's three columns
# (24 bytes), the arrivals still to come, the completions' rows, times and waits, and the result
# columns. It was 269 bytes with the workload held as one Request tuple per row
SIMULATE_PEAK_BYTES_PER_REQUEST = 160


def test_a_simulate_job_holds_few_bytes_per_request(tmp_path):
    """The traced peak of a simulate job on a 2k rps, 20 s trace, served as the benchmark's
    serve-ablation serves it first: the stock cluster at a pinned 3 students."""
    rng = np.random.default_rng(0)
    arrivals = np.cumsum(rng.exponential(0.5, 42_000))
    arrivals = arrivals[arrivals <= 20_000.0]
    trace = tmp_path / "trace.csv"
    with open(trace, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arrival_ms", "length_tokens"])
        writer.writerows(zip((f"{t:.6f}" for t in arrivals.tolist()), rng.integers(1, 129, len(arrivals)).tolist()))
    cfg = json.loads((Path(__file__).resolve().parent.parent / "configs" / "simulate.json").read_text())
    cfg.update(out_dir=str(tmp_path / "out"), accuracy_table={"kind": "flat", "students": 3},
               workload={"kind": "trace", "path": str(trace)})
    cfg["cluster"]["controller"].update(min_students=3, max_students=3)
    config = write_config(tmp_path, "simulate.json", cfg)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert cli.main(["simulate", "--config", config]) == cli.EXIT_OK
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert json.loads((tmp_path / "out" / "metrics.json").read_text())["completed"] == len(arrivals) > 39_000
    assert peak / len(arrivals) <= SIMULATE_PEAK_BYTES_PER_REQUEST, f"{peak / len(arrivals):.1f} bytes per request"


@pytest.mark.parametrize("workload", [
    {"kind": "poisson", "rps": 2000.0, "duration_ms": 500.0},
    {"kind": "phases", "phases": [{"rps": 2000.0, "duration_ms": 300.0}, {"rps": 500.0, "duration_ms": 200.0}]},
], ids=["poisson", "phases"])
def test_cluster_bin_width_sets_request_lengths(tmp_path, workload):
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg["cluster"].update(bin_width=4, num_bins=16)
    cfg["workload"] = workload
    assert cli.main(["simulate", "--config", write_config(tmp_path, "bins.json", cfg)]) == cli.EXIT_OK
    lengths = [int(row[4]) for row in read_csv(tmp_path / "sim_out" / "latencies.csv")[1:]]
    assert len(lengths) > 500 and max(lengths) <= 64 and min(lengths) >= 1


def simulate_within(seconds, argv):
    """``cli.main(argv)``, failing if it has not returned after ``seconds``."""
    def give_up(signum, frame):
        raise TimeoutError(f"simulate still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(seconds)
    try:
        return cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_far_off_completions_do_not_hang_the_simulator(tmp_path):
    """Lengths padded to 2**28 tokens give service times near 1e12 ms, with the
    clock still below 2**53 ms; the heartbeats used to step through that wait
    100 ms at a time."""
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg["cluster"]["bin_width"] = 2**28
    started = time.monotonic()
    assert simulate_within(20, ["simulate", "--config", write_config(tmp_path, "slow.json", cfg)]) == cli.EXIT_OK
    assert time.monotonic() - started < 5.0
    rows = read_csv(tmp_path / "sim_out" / "latencies.csv")[1:]
    metrics = json.loads((tmp_path / "sim_out" / "metrics.json").read_text())
    assert len(rows) == metrics["completed"] > 0
    assert min(float(row[3]) for row in rows) > 1e12


def test_clock_past_2_53_ms_exits_numeric(tmp_path, capsys):
    """At 2**31 tokens per bin, completions land near 6.8e16 ms, where a float
    millisecond no longer has integer resolution."""
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg["cluster"]["bin_width"] = 2**31
    assert simulate_within(20, ["simulate", "--config", write_config(tmp_path, "far.json", cfg)]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric failure" in err and "2**53" in err and "Traceback" not in err


@pytest.mark.parametrize("cluster, factors", [
    ({"controller": {"idle_window_ms": 1e22}}, {}),
    ({"controller": {"idle_window_ms": 1e300}}, {}),
    ({}, {"gather_ms": 1e22}),
    ({}, {"gather_ms": 1e300}),
    ({"num_bins": 10**12, "pad_to_max": True}, {}),
    ({"batch_timeout_ms": 1e300}, {}),
])
def test_heartbeats_far_past_2_53_ms_exit_numeric(tmp_path, capsys, cluster, factors):
    """Far past 2**53 ms, now + 100 rounds back to now: these runs used to spin on a
    heartbeat that never moved the clock, and now stop at the first beat due past 2**53 ms.
    A waiting-queue element's timer at 1e300 ms used to be waited for 100 ms at a time."""
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg["cluster"].update(cluster)
    cfg["factors"].update(factors)
    assert simulate_within(20, ["simulate", "--config", write_config(tmp_path, "far.json", cfg)]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric failure" in err and "2**53" in err and "Traceback" not in err


def test_a_long_waiting_queue_timeout_does_not_slow_the_run(tmp_path, monkeypatch):
    """A part-filled element waits out its 1e7 ms timeout; the heartbeats used to step
    through that wait 100 ms at a time while any buffer held an element."""
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg["cluster"]["batch_timeout_ms"] = 1e7
    cfg["workload"]["duration_ms"] = 1_000.0
    beats = []
    beat_state = servesim.Simulation._beat_state
    monkeypatch.setattr(servesim.Simulation, "_beat_state", lambda self: beats.append(1) or beat_state(self))
    assert simulate_within(20, ["simulate", "--config", write_config(tmp_path, "long.json", cfg)]) == cli.EXIT_OK
    assert len(beats) < 1_000  # the run spans 6e7 ms: 600,000 beats of 100 ms, each read twice
    rows = read_csv(tmp_path / "sim_out" / "latencies.csv")[1:]
    assert len(rows) > 100 and max(float(row[3]) for row in rows) > 1e7


@pytest.mark.parametrize("value", ["yes", "false", 1.5, 1, 0, None, [True]])
def test_non_bool_pad_to_max_exits_config(tmp_path, capsys, value):
    """These were taken as true or false by their truth value."""
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg["cluster"]["pad_to_max"] = value
    err = assert_config_error(["simulate", "--config", write_config(tmp_path, "pad.json", cfg)], capsys)
    assert "pad_to_max must be true or false" in err


@pytest.mark.parametrize("mode, path, value, named", [
    ("distill", ("task", "n_train"), 10**12, "n_train"),
    ("distill", ("task", "d_in"), 10**12, "d_in"),
    ("distill", ("teacher", "hidden_dim"), 10**9, "teacher.depth, rep_dim and hidden_dim"),
    ("distill", ("teacher", "epochs"), 10**9, "teacher.epochs"),
    ("distill", ("distill", "epochs_per_student"), 10**9, "epochs_per_student"),
    ("distill", ("student_depth",), 10**9, "student_depth"),
    ("prune", ("task", "n_train"), 10**12, "n_train"),
    ("prune", ("distill", "pruning_epochs"), 10**9, "distill.pruning_epochs"),
], ids=repr)
def test_training_sizes_past_their_limits_name_the_key(tmp_path, capsys, distilled, mode, path, value, named):
    """These used to allocate terabytes (and fail with a raw traceback) or train for days."""
    if mode == "distill":
        cfg = toy_payloads(tmp_path)["distill"]
    else:
        cfg = {"mode": "prune", "seed": 5, "out_dir": str(tmp_path / "prune_out"),
               "distill_dir": str(distilled), "task": {"kind": "gaussian", "d_in": 4}, "distill": {}}
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    err = assert_config_error([mode, "--config", write_config(tmp_path, "big.json", cfg)], capsys)
    assert named in err and "above the limit of" in err, err


@pytest.mark.parametrize("mode", ["distill", "prune"])
def test_subsample_overflowing_the_train_set_exits_config(tmp_path, capsys, distilled, mode):
    if mode == "distill":
        cfg = toy_payloads(tmp_path)["distill"]
    else:
        cfg = {"mode": "prune", "seed": 5, "out_dir": str(tmp_path / "prune_out"),
               "distill_dir": str(distilled), "task": {"kind": "gaussian", "d_in": 4}, "distill": {}}
    cfg["task"]["n_train"] = 3
    cfg["distill"].update(subsample_top_pct=50, subsample_rand_pct=50)  # ceil(1.5) + ceil(1.5) > 3
    err = assert_config_error([mode, "--config", write_config(tmp_path, "sub.json", cfg)], capsys)
    assert "subsample_top_pct" in err


def test_controller_readds_students_after_a_late_draining_backlog(tmp_path):
    """The backlog of a 15k rps burst drains long after the last arrival; the
    controller must still see the idle system afterwards and add students back."""
    for seed in range(3):
        cfg = json.loads(Path(simulate_config(tmp_path, out_name=f"late{seed}")).read_text())
        cfg["seed"] = seed
        cfg["cluster"] = {"nodes": 1, "gpus_per_node": 4, "group_size": 3, "replicas_per_gpu": 1,
                          "batch_timeout_ms": 2,
                          "controller": {"min_students": 1, "max_students": 3, "idle_window_ms": 20}}
        cfg["factors"] = {"depth": 2, "width_per_student": 256, "pcie_tokens_per_ms": 400}
        cfg["workload"] = {"kind": "phases", "phases": [{"rps": 15000, "duration_ms": 100},
                                                        {"rps": 750, "duration_ms": 150},
                                                        {"rps": 15000, "duration_ms": 60}]}
        assert cli.main(["simulate", "--config", write_config(tmp_path, "late.json", cfg)]) == cli.EXIT_OK
        out = tmp_path / f"late{seed}"
        rows = read_csv(out / "latencies.csv")[1:]
        last_arrival = max(float(r[1]) for r in rows)
        last_completion = max(float(r[2]) for r in rows)
        assert last_completion > last_arrival + 20 + 500  # drains after the old heartbeat horizon
        timeline = json.loads((out / "metrics.json").read_text())["student_number_timeline"]
        assert [k for _, k in timeline[:3]] == [3, 2, 1]
        assert timeline[-1][1] == 3


# -- fuzz: mutated toy configs never end in a traceback -------------------------------------

MUTANT_VALUES = [None, "x", [], {}, -1, 0, 1.5, True, 1e300, 1e-300, 10**12, 10**400]


def fuzz_payloads(root, distilled):
    """Tiny configs for the four config modes; each runs in well under a second."""
    task = {"kind": "gaussian", "n_classes": 2, "d_in": 4, "n_train": 24, "n_val": 12, "n_test": 12,
            "class_sep": 2.5}
    distill = {"lambda_stack": 1.0, "subsample_top_pct": 20, "subsample_rand_pct": 20,
               "max_students": 2, "epochs_per_student": 2, "soft_ce_temperature": 2.0,
               "overfit_patience": 1, "batch_size": 16, "learning_rate": 0.01, "pruning_epochs": 1,
               "min_improvement": 1e-9}
    return {
        "distill": {"mode": "distill", "seed": 1, "out_dir": str(root / "d"), "task": task,
                    "teacher": {"depth": 1, "rep_dim": 4, "hidden_dim": 4, "epochs": 2,
                                "learning_rate": 0.01, "optimizer": "adam"},
                    "distill": distill, "student_depth": 2},
        "prune": {"mode": "prune", "seed": 1, "out_dir": str(root / "p"), "distill_dir": str(distilled),
                  "task": task, "distill": distill},
        "simulate": {
            "mode": "simulate", "seed": 1, "out_dir": str(root / "s"),
            "accuracy_table": {"kind": "flat", "students": 3, "base": 0.9, "step": 0.01},
            "cluster": {"nodes": 2, "gpus_per_node": 2, "group_size": 2, "replicas_per_gpu": 2,
                        "bin_width": 8, "num_bins": 16, "max_merge": 2, "pad_to_max": False,
                        "batch_timeout_ms": 1.0,
                        "controller": {"min_students": 1, "max_students": 3, "idle_window_ms": 50}},
            "factors": {"depth": 2, "width_per_student": 64, "capacity_per_gpu": 1.5e7,
                        "pcie_tokens_per_ms": 400, "gather_ms": 0.2,
                        "calibration": {"observed_latency_ms": 11.6, "gpus": 4, "arrival_rps": 2000}},
            "workload": {"kind": "phases", "phases": [{"rps": 500, "duration_ms": 100},
                                                      {"rps": 2000, "duration_ms": 50}]},
        },
        "perf": {"mode": "perf", "seed": 1, "out_dir": str(root / "f"), "gpus": 4,
                 "calibration": {"observed_latency_ms": 11.6, "arrival_rps": 2000}},
    }


def paths_of(node, prefix=()):
    """Every key or index path into a JSON value, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths_of(child, prefix + (key,))


def run_in(directory, argv):
    cwd = os.getcwd()
    os.chdir(directory)  # a mutated out_dir may be relative
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            return cli.main(argv), err.getvalue()
    finally:
        os.chdir(cwd)


def cfg_at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def fuzz_cases(distilled):
    """Every mutation of the fuzz: per mode and path, the key or item dropped, an unknown key
    added beside it where its parent is an object, and each of MUTANT_VALUES in its place."""
    for mode, cfg in fuzz_payloads(Path(), distilled).items():  # only the paths are read
        for path in paths_of(cfg):
            yield mode, path, "drop", None
            if isinstance(cfg_at(cfg, path[:-1]), dict):
                yield mode, path, "unknown", None
            for value in MUTANT_VALUES:
                yield mode, path, "replace", value


def test_fuzzed_configs_exit_cleanly(distilled):
    """The whole fuzz space, every case in every run: each exits 0, 2 or 3 with no traceback."""
    failures, cases = [], 0
    for mode, path, op, value in fuzz_cases(distilled):
        cases += 1
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            cfg = fuzz_payloads(root, distilled)[mode]
            parent = cfg_at(cfg, path[:-1])
            if op == "drop":
                del parent[path[-1]]
            elif op == "unknown":
                parent["not_a_key"] = 1
            else:
                parent[path[-1]] = value
            (root / "cfg.json").write_text(json.dumps(cfg))
            code, err = run_in(root, [mode, "--config", str(root / "cfg.json")])
        if code not in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC) or "Traceback" in err:
            failures.append((mode, path, op, value, code, err[-300:]))
    assert cases > 1000
    assert not failures, f"{len(failures)} of {cases} cases: {failures[:5]}"
