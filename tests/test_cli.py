import base64
import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from studentpar import cli


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
    "ensemble-bad-schema": lambda t, e: e.update(schema="nope"),
    "ensemble-truncated-base64": lambda t, e: truncate_weight(e["students"][0]["layers"][0]),
    "ensemble-nan-multiplier": lambda t, e: e["multipliers"].__setitem__(0, float("nan")),
    "ensemble-missing-key": lambda t, e: e.pop("multipliers"),
    "ensemble-holds-a-teacher": lambda t, e: e["students"].__setitem__(0, dict(t)),
    "ensemble-empty": lambda t, e: e.update(students=[], multipliers=[]),
}


@pytest.mark.parametrize("corruption", list(CHECKPOINT_CORRUPTIONS))
def test_prune_corrupt_checkpoint_exits_config(tmp_path, capsys, distilled, corruption):
    teacher = json.loads((distilled / "teacher.json").read_text())
    ensemble = json.loads((distilled / "ensemble.json").read_text())
    CHECKPOINT_CORRUPTIONS[corruption](teacher, ensemble)
    bad = tmp_path / "bad_distill"
    bad.mkdir()
    (bad / "teacher.json").write_text(json.dumps(teacher))
    (bad / "ensemble.json").write_text(json.dumps(ensemble))
    cfg = write_config(tmp_path, "prune.json", {
        "mode": "prune", "seed": 5, "out_dir": str(tmp_path / "prune_out"), "distill_dir": str(bad),
        "task": {"kind": "gaussian", "n_classes": 2, "d_in": 4, "n_train": 96,
                 "n_val": 48, "n_test": 48, "class_sep": 2.5},
        "distill": {"pruning_epochs": 1},
    })
    assert cli.main(["prune", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_prune_task_width_mismatch_exits_config(tmp_path, capsys, distilled):
    cfg = write_config(tmp_path, "prune.json", {
        "mode": "prune", "seed": 5, "out_dir": str(tmp_path / "prune_out"),
        "distill_dir": str(distilled), "task": {"kind": "gaussian", "d_in": 5},
    })
    assert cli.main(["prune", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "width" in err and "Traceback" not in err


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
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["distill", "prune"])
@pytest.mark.parametrize("knob, value", [
    ("batch_size", 0), ("batch_size", 1.5), ("learning_rate", -1), ("learning_rate", 0),
    ("max_students", 0), ("epochs_per_student", 0), ("pruning_epochs", -1),
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


@pytest.mark.parametrize("payload", [[1, 2], {
    "avg_latency_ms": "fast", "p95_latency_ms": 1.0, "throughput_per_gpu": 1.0, "completed": 1,
    "student_number_timeline": [], "accuracy_timeline": []}], ids=["list", "string-latency"])
def test_report_malformed_metrics_exits_config(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert_config_error(["report", str(bad), "--out", str(tmp_path / "rep")], capsys)


def test_seed_flag_must_be_non_negative(tmp_path, capsys):
    cfg = simulate_config(tmp_path)
    err = assert_config_error(["simulate", "--config", cfg, "--seed", "-1"], capsys)
    assert "seed" in err


@pytest.mark.parametrize("weights", [[1, -1], [0, 0], [1, "NaN"]], ids=repr)
def test_bad_length_weights_name_the_key(tmp_path, capsys, weights):
    cfg = toy_payloads(tmp_path)["simulate"]
    cfg["workload"]["length_weights"] = weights
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(cfg).replace('"NaN"', "NaN"))  # json.loads reads NaN as a float
    assert "length_weights" in assert_config_error(["simulate", "--config", str(path)], capsys)


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

MUTANT_VALUES = [None, "x", [], {}, -1, 0, 1.5, True]


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


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mode=st.sampled_from(["distill", "prune", "simulate", "perf"]), data=st.data())
def test_fuzzed_configs_exit_cleanly(distilled, mode, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = fuzz_payloads(root, distilled)[mode]
        path = data.draw(st.sampled_from(list(paths_of(cfg))), label="path")
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        op = data.draw(st.sampled_from(["drop", "unknown", "replace"]), label="op")
        if op == "drop":
            del parent[path[-1]]
        elif op == "unknown" and isinstance(parent, dict):
            parent["not_a_key"] = 1
        else:
            parent[path[-1]] = data.draw(st.sampled_from(MUTANT_VALUES), label="value")
        (root / "cfg.json").write_text(json.dumps(cfg))
        code, err = run_in(root, [mode, "--config", str(root / "cfg.json")])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC), err
    assert "Traceback" not in err
