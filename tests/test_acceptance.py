"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The distillation pipeline (criteria 4 and 5) is shared through a
session fixture; everything else builds its own fixtures inline.
"""

import json
import time

import numpy as np
import pytest

from studentpar import cli
from studentpar import distill as dst
from studentpar import nnkernel as nn
from studentpar import perfmodel as pm
from studentpar import servesim as sim


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


# -- shared distillation pipeline (criteria 4 and 5) ---------------------------

RETENTION_SEEDS = (0, 1, 2, 3, 4)


def distill_pipeline(seed: int):
    """Teacher + Algorithm 1 + Algorithm 2 at the acceptance scale."""
    splits = dst.make_gaussian_task(n_classes=2, d_in=8, n_train=512, n_val=256, n_test=512,
                                    class_sep=3.0, seed=seed)
    teacher = nn.TeacherModel.build(8, 16, 32, 12, 2, dst.rng_for(seed, "teacher-init"))
    dst.train_teacher(teacher, splits, epochs=150, learning_rate=1e-3, seed=seed)
    cfg = dst.DistillConfig(seed=seed, max_students=8, epochs_per_student=150,
                            pruning_epochs=60, learning_rate=1e-3, soft_ce_temperature=2.0)
    state, records = dst.sequential_training(teacher, splits, cfg)
    head_readout_acc = dst.ensemble_accuracy_via_teacher_head(teacher, state, splits.test)
    first_student = state.students[0].copy()  # snapshot before pruning fine-tunes it
    state, table, best_k = dst.adaptive_pruning(teacher, state, splits, cfg)
    baseline_state = dst.EnsembleState([first_student], [1.0])
    baseline_state, baseline_table, _ = dst.adaptive_pruning(teacher, baseline_state, splits, cfg)
    return {
        "splits": splits,
        "teacher": teacher,
        "state": state,
        "table": table,
        "best_k": best_k,
        "baseline_table": baseline_table,
        "records": records,
        "head_readout_acc": head_readout_acc,
    }


@pytest.fixture(scope="session")
def distill_runs():
    return {seed: distill_pipeline(seed) for seed in RETENTION_SEEDS}


# -- criterion 1: gradient correctness ------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    worst_combined = 0.0
    for seed in range(100):
        rng = make_rng(1000 + seed)
        student = nn.StudentModel.build(4, 6, 2, rng)
        teacher = nn.TeacherModel.build(4, 6, 8, 2, 2, rng)
        x = rng.normal(size=(4, 4))
        t_reps, _ = teacher.forward(x)
        prev = rng.normal(size=(4, 6))
        lam = float(rng.uniform(0.0, 2.0))

        def loss_fn(model):
            f, m = model.forward(x)
            r = t_reps - prev - f
            q = prev - m
            loss = 0.5 * float(np.sum(r * r)) + lam * 0.5 * float(np.sum(q * q))
            return loss, (-r, lam * (m - prev))

        rep = nn.finite_diff_check(student, loss_fn, step=1e-5, tol=1e-4)
        worst_combined = max(worst_combined, rep.max_rel_err)
        assert rep.passed, f"seed {seed}: combined-loss gradient mismatch {rep.max_rel_err}"

    worst_prefix = 0.0
    for seed in range(100):
        rng = make_rng(2000 + seed)
        students = [nn.StudentModel.build(4, 6, 2, rng) for _ in range(2)]
        state = dst.EnsembleState(students, [1.0, float(rng.uniform(-1.5, 1.5))])
        state.classifier = nn.DenseLayer.init(2, 6, nn.IDENTITY, rng)
        xb = rng.normal(size=(4, 4))
        t_logits = rng.normal(size=(4, 2))
        grad, _ = dst.accumulate_prefix_gradients(state, xb, t_logits, temperature=1.0)

        def total_loss():
            total = 0.0
            for k in range(1, len(state) + 1):
                total += dst.soft_cross_entropy(state.classifier.forward(state.rep(xb, k)), t_logits, 1.0)
            return total

        pruning = dst._PruningParams(state)
        step = 1e-5
        for name, start, stop, _ in pruning.layout:
            flat, a_flat = pruning.flat[start:stop], grad[start:stop]
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                lp = total_loss()
                flat[idx] = orig - step
                lm = total_loss()
                flat[idx] = orig
                numeric = (lp - lm) / (2 * step)
                rel = abs(a_flat[idx] - numeric) / max(abs(a_flat[idx]), abs(numeric), 1e-6)
                worst_prefix = max(worst_prefix, rel)
                assert rel <= 1e-4, f"seed {seed}: prefix-loss gradient mismatch at {name}[{idx}]: {rel}"

    elapsed = time.monotonic() - started
    report(1, elapsed < 60.0,
           f"100+100 gradient checks, worst rel err combined={worst_combined:.2e} "
           f"prefix={worst_prefix:.2e}, {elapsed:.1f}s (< 60s)")


# -- criterion 2: line-search / boosting-step identity ----------------------------


def test_criterion_2_line_search_identity():
    started = time.monotonic()
    grid = np.arange(-4.0, 4.0 + 1e-4, 1e-4)
    worst_gap = 0.0
    for seed in range(1000):
        rng = make_rng(3000 + seed)
        s = rng.normal(size=(6, 5))
        prev = rng.normal(size=(6, 5))
        t = prev + float(rng.uniform(-2, 2)) * s + 0.3 * rng.normal(size=(6, 5))
        closed = dst.line_search_alpha(t, prev, s)
        step = dst.anyboost_step(t, prev, s, lipschitz=1.0)
        assert step == closed, f"seed {seed}: anyboost(L=1) not bitwise equal to line search"
        r = t - prev
        cross = float(np.sum(r * s))
        ss = float(np.sum(s * s))
        losses = -2.0 * grid * cross + grid**2 * ss  # constant term dropped
        grid_best = float(grid[np.argmin(losses)])
        worst_gap = max(worst_gap, abs(closed - grid_best))
        assert abs(closed - grid_best) <= 1e-4, f"seed {seed}: grid argmin off by {abs(closed - grid_best)}"
    elapsed = time.monotonic() - started
    report(2, elapsed < 10.0,
           f"1000 pairs bitwise-identical, max gap to grid argmin {worst_gap:.2e}, {elapsed:.1f}s (< 10s)")


# -- criterion 3: monotone boosting ------------------------------------------------


def test_criterion_3_monotone_boosting():
    started = time.monotonic()
    checked_rounds = 0
    for seed in range(20):
        splits = dst.make_gaussian_task(n_classes=2, d_in=4, n_train=96, n_val=48, n_test=48,
                                        class_sep=2.5, seed=seed)
        teacher = nn.TeacherModel.build(4, 6, 8, 3, 2, dst.rng_for(seed, "teacher-init"))
        dst.train_teacher(teacher, splits, epochs=60, learning_rate=3e-3, seed=seed)
        cfg = dst.DistillConfig(seed=seed, max_students=4, epochs_per_student=60, learning_rate=3e-3)
        state, records = dst.sequential_training(teacher, splits, cfg)
        train_mses = [dst.residual_mse(teacher, state, splits.train, k) for k in range(1, len(state) + 1)]
        for a, b in zip(train_mses, train_mses[1:]):
            assert b <= a + 1e-9, f"seed {seed}: train residual MSE increased {train_mses}"
        kept = [r.residual_mse for r in records if not r.halted]
        for a, b in zip(kept, kept[1:-1]):
            assert b <= a + 1e-9, f"seed {seed}: val residual MSE increased before the overfit round"
        checked_rounds += len(records)
    elapsed = time.monotonic() - started
    report(3, elapsed < 300.0,
           f"20 seeds, {checked_rounds} rounds, train-MSE and pre-overfit val-MSE nonincreasing, "
           f"{elapsed:.1f}s (< 300s)")


# -- criteria 4 and 5: retention and pruning behavior --------------------------------


def test_criterion_4_distillation_retention(distill_runs):
    passes = 0
    details = []
    for seed, run in distill_runs.items():
        teacher_acc = dst.teacher_accuracy(run["teacher"], run["splits"].test)
        group_acc = run["table"].rows[run["best_k"] - 1][2]
        assert len(run["state"]) <= 8
        assert all(s.depth == 2 for s in run["state"].students)
        ok = group_acc >= 0.95 * teacher_acc
        passes += ok
        details.append(f"seed {seed}: {group_acc:.3f}/{teacher_acc:.3f}={group_acc / teacher_acc:.3f}")
    report(4, passes >= 4, f"retention >= 0.95 on {passes}/5 seeds ({'; '.join(details)})")


def test_supplementary_head_readout_retention(distill_runs):
    # before the pruning stage trains a classifier, the ensemble read out
    # through the teacher's own head should already sit near the teacher
    passes = 0
    for run in distill_runs.values():
        teacher_acc = dst.teacher_accuracy(run["teacher"], run["splits"].test)
        passes += run["head_readout_acc"] >= 0.95 * teacher_acc
    assert passes >= 4, f"head-readout retention only on {passes}/5 seeds"


def test_criterion_5_pruning_behavior(distill_runs):
    non_degraded = 0
    k1_wins = 0
    for seed, run in distill_runs.items():
        best_val = run["table"].rows[run["best_k"] - 1][1]
        full_val = run["table"].rows[-1][1]
        non_degraded += best_val >= full_val - 0.01
        k1_wins += run["table"].rows[0][1] >= run["baseline_table"].rows[0][1]
    report(5, non_degraded == 5 and k1_wins >= 4,
           f"best-pruned >= full-0.01 on {non_degraded}/5 seeds; "
           f"pruning-aware k=1 >= dedicated 1-student baseline on {k1_wins}/5 seeds")


# -- criterion 6: buffer correctness and O(1) -----------------------------------------


class _NaiveBuffer:
    def __init__(self, max_merge, capacity):
        self.max_merge, self.capacity = max_merge, capacity
        self.elements = []

    def push(self, rid, length):
        b = (min(length, 128) + 7) // 8 - 1
        for el in self.elements:
            if el[0] == b and el[2]:
                el[1].append(rid)
                if len(el[1]) >= self.max_merge:
                    el[2] = False
                return sim.MERGED
        if len(self.elements) >= self.capacity:
            return sim.REJECTED
        self.elements.append([b, [rid], 1 < self.max_merge])
        return sim.APPENDED

    def pop(self):
        return self.elements.pop(0)


def test_criterion_6_buffer_fuzz_and_constant_work(touched_elements):
    started = time.monotonic()
    rng = make_rng(4000)
    buf = sim.LengthAwareBuffer(16, 8, 4, capacity=8)
    naive = _NaiveBuffer(4, 8)
    rid = 0
    for op in range(100_000):
        if buf.fifo and rng.random() < 0.4:
            got = buf.pop()
            want = naive.pop()
            assert (got.bin, got.rows) == (want[0], want[1]), f"op {op}"
        else:
            length = int(rng.integers(1, 129))
            got = buf.push(rid, length)
            want = naive.push(rid, length)
            assert got == want, f"op {op}"
            rid += 1
        assert [(e.bin, e.rows) for e in buf.fifo] == \
               [(e[0], e[1]) for e in naive.elements], f"op {op}"

    # the elements each operation touches, counted by the elements themselves (see conftest.py)
    worst_touches = 0
    for capacity in (4, 64, 1024, 4096):
        rng2 = make_rng(4001)
        big = sim.LengthAwareBuffer(16, 8, 4, capacity=capacity)
        for i in range(20_000):
            touched_elements.clear()
            if big.fifo and rng2.random() < 0.25:
                big.pop()
            else:
                big.push(i, int(rng2.integers(1, 129)))
            worst_touches = max(worst_touches, len(touched_elements))
    elapsed = time.monotonic() - started
    report(6, worst_touches <= 2,
           f"100k-op fuzz exact match; max touched elements {worst_touches} (<= 2) "
           f"across capacities 4..4096, {elapsed:.1f}s")


# -- criteria 7-9: simulator reproductions ---------------------------------------------

SIM_PCIE = 400.0


def sim_perf_model():
    model = pm.PerfModel()
    reference = pm.replace(pm.baseline_reference(), pcie_tokens_per_ms=SIM_PCIE)
    model.calibrate(reference, 11.6)
    return model


def sim_factors(model, depth=2, width=256):
    return sim.ServiceFactors(model=model, depth=depth, width_per_student=width,
                              capacity=pm.DEFAULT_CAPACITY, pcie_tokens_per_ms=SIM_PCIE,
                              gather_ms=pm.DEFAULT_GATHER_MS)


def flat_table(m=3, base=0.93):
    return dst.AccuracyTable([(k, base + 0.01 * (k - 1), base + 0.01 * (k - 1))
                              for k in range(1, m + 1)])


def pinned_controller(k):
    return sim.ControllerConfig(max_students=k, accuracy_table=flat_table(max(k, 3)),
                                min_students=k)


def student_cluster(**overrides):
    base = dict(controller=pinned_controller(3), gpus_per_node=4, group_size=3, replicas_per_gpu=3)
    base.update(overrides)
    return sim.ClusterConfig(**base)


def baseline_cluster():
    return sim.ClusterConfig(controller=pinned_controller(1), gpus_per_node=4, group_size=1,
                             replicas_per_gpu=1, pad_to_max=True, batch_timeout_ms=10.0,
                             max_merge=8)


def test_criterion_7_latency_ablation_orderings():
    started = time.monotonic()
    model = sim_perf_model()
    workload = sim.generate_workload(sim.PoissonSpec(rps=2000.0, duration_ms=8_000.0), seed=11)
    runs = {
        "studentpar_2l": sim.run_simulation(student_cluster(), workload, sim_factors(model)),
        "students_4l": sim.run_simulation(student_cluster(), workload, sim_factors(model, depth=4)),
        "with_padding": sim.run_simulation(student_cluster(pad_to_max=True), workload, sim_factors(model)),
        "with_waiting_queue": sim.run_simulation(
            student_cluster(pad_to_max=True, batch_timeout_ms=10.0), workload, sim_factors(model)),
    }
    avgs = {name: m.avg_latency_ms for name, m in runs.items()}
    ordered = (avgs["studentpar_2l"] < avgs["students_4l"]
               < avgs["with_padding"] < avgs["with_waiting_queue"])
    elapsed = time.monotonic() - started
    report(7, ordered and elapsed < 60.0,
           "avg latency ordering "
           + " < ".join(f"{name}={avgs[name]:.3f}" for name in
                        ("studentpar_2l", "students_4l", "with_padding", "with_waiting_queue"))
           + f", {elapsed:.1f}s (< 60s)")


def test_criterion_8_directional_speedup():
    model = sim_perf_model()
    workload = sim.generate_workload(sim.PoissonSpec(rps=2000.0, duration_ms=8_000.0), seed=11)
    student = sim.run_simulation(student_cluster(), workload, sim_factors(model))
    baseline = sim.run_simulation(baseline_cluster(), workload, sim_factors(model, depth=12, width=768))
    avg_ratio = baseline.avg_latency_ms / student.avg_latency_ms
    p95_ratio = baseline.p95_latency_ms / student.p95_latency_ms
    report(8, avg_ratio >= 2.0 and p95_ratio >= 2.0,
           f"student-parallel vs dynamic-batching 12L: avg {student.avg_latency_ms:.3f} vs "
           f"{baseline.avg_latency_ms:.3f} ({avg_ratio:.1f}x), p95 {student.p95_latency_ms:.3f} vs "
           f"{baseline.p95_latency_ms:.3f} ({p95_ratio:.1f}x); both >= 2x")


def three_phase_workload(steady=2000.0, mult=5.0, pre_ms=4_000.0, burst_ms=2_500.0, tail_ms=18_000.0):
    phases = [(steady, pre_ms), (mult * steady, burst_ms), (steady, tail_ms)]
    parts, offset = [], 0.0
    for i, (rps, dur) in enumerate(phases):
        parts.append(sim.generate_workload(sim.PoissonSpec(rps=rps, duration_ms=dur), seed=100 + i,
                                           offset_ms=offset, first_id=sum(map(len, parts))))
        offset += dur
    return sim.Workload.concatenate(parts), (pre_ms, pre_ms + burst_ms)


def test_criterion_9_burst_adaptation():
    model = sim_perf_model()
    workload, (burst_start, burst_end) = three_phase_workload()

    controller = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(3),
                                      min_students=1, idle_window_ms=5_000.0)
    adaptive = sim.run_simulation(student_cluster(controller=controller), workload, sim_factors(model))
    timeline = adaptive.student_number_timeline
    k_before = [k for t, k in timeline if t <= burst_start][-1]
    ks_during = [k for t, k in timeline if burst_start <= t <= burst_end] or [k_before]
    dipped = min(ks_during) <= k_before - 1
    recovered = any(k == k_before and t > burst_end for t, k in timeline)

    burst_tp = {}
    for k in (1, 3):
        cluster = sim.ClusterConfig(controller=pinned_controller(k), gpus_per_node=4,
                                    group_size=k, replicas_per_gpu=1)
        metrics = sim.run_simulation(cluster, workload, sim_factors(model))
        done = metrics.columns.completion_ms
        in_burst = int(((burst_start <= done) & (done <= burst_end)).sum())
        burst_tp[k] = 1000.0 * in_burst / ((burst_end - burst_start) * 4)
    ratio = burst_tp[1] / burst_tp[3]
    report(9, dipped and recovered and ratio >= 1.5,
           f"timeline dipped to {min(ks_during)} during the burst and recovered to {k_before}; "
           f"burst throughput k=1 {burst_tp[1]:.0f}/s/gpu vs k=3 {burst_tp[3]:.0f}/s/gpu "
           f"({ratio:.2f}x >= 1.5x)")


# -- criterion 10: CLI determinism --------------------------------------------------------


def _write(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def _compare_dirs(a, b):
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b, f"output sets differ: {names_a} vs {names_b}"
    diffs = []
    for name in names_a:
        if name == "manifest.json":
            ma = json.loads((a / name).read_text())
            mb = json.loads((b / name).read_text())
            ma["duration_ms"] = mb["duration_ms"] = 0.0  # the one wall-clock field
            if json.dumps(ma, sort_keys=True) != json.dumps(mb, sort_keys=True):
                diffs.append(name)
        elif (a / name).read_bytes() != (b / name).read_bytes():
            diffs.append(name)
    return diffs


def test_criterion_10_cli_determinism(tmp_path):
    task = {"kind": "gaussian", "n_classes": 2, "d_in": 4, "n_train": 96,
            "n_val": 48, "n_test": 48, "class_sep": 2.5}
    distill_opts = {"max_students": 2, "epochs_per_student": 30, "pruning_epochs": 8,
                    "batch_size": 32, "learning_rate": 3e-3}
    distill_cfg = _write(tmp_path / "distill.json", {
        "mode": "distill", "seed": 9, "out_dir": str(tmp_path / "d1"),
        "task": task, "teacher": {"depth": 3, "rep_dim": 8, "hidden_dim": 12, "epochs": 40},
        "distill": distill_opts,
    })
    prune_cfg = _write(tmp_path / "prune.json", {
        "mode": "prune", "seed": 9, "out_dir": str(tmp_path / "p1"),
        "distill_dir": str(tmp_path / "d1"), "task": task, "distill": distill_opts,
    })
    simulate_cfg = _write(tmp_path / "simulate.json", {
        "mode": "simulate", "seed": 9, "out_dir": str(tmp_path / "s1"),
        "accuracy_table": {"kind": "csv", "path": str(tmp_path / "p1" / "accuracy.csv")},
        "cluster": {"gpus_per_node": 4, "group_size": 2, "replicas_per_gpu": 2,
                    "controller": {"max_students": 2}},
        "factors": {"depth": 2, "width_per_student": 256},
        "workload": {"kind": "poisson", "rps": 300.0, "duration_ms": 2000.0},
    })
    perf_cfg = _write(tmp_path / "perf.json", {
        "mode": "perf", "out_dir": str(tmp_path / "f1"),
        "calibration": {"observed_latency_ms": 11.6},
    })

    failures = []
    plan = [
        ("distill", ["distill", "--config", distill_cfg], "d1", "d2"),
        ("prune", ["prune", "--config", prune_cfg], "p1", "p2"),
        ("simulate", ["simulate", "--config", simulate_cfg], "s1", "s2"),
        ("perf", ["perf", "--config", perf_cfg], "f1", "f2"),
    ]
    for name, argv, first, second in plan:
        assert cli.main(argv) == cli.EXIT_OK, f"{name} run 1 failed"
        assert cli.main(argv + ["--out", str(tmp_path / second)]) == cli.EXIT_OK, f"{name} run 2 failed"
        diffs = _compare_dirs(tmp_path / first, tmp_path / second)
        if diffs:
            failures.append(f"{name}: {diffs}")

    for rep_dir in ("r1", "r2"):
        code = cli.main(["report", str(tmp_path / "s1" / "metrics.json"),
                         "--out", str(tmp_path / rep_dir)])
        assert code == cli.EXIT_OK
    for name in ("comparison.csv", "long.csv"):
        if (tmp_path / "r1" / name).read_bytes() != (tmp_path / "r2" / name).read_bytes():
            failures.append(f"report: {name}")

    report(10, not failures,
           "distill/prune/simulate/perf/report byte-identical across repeat runs"
           + ("" if not failures else f"; differing: {failures}"))
