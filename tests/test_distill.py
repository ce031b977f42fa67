import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from studentpar import distill as dst
from studentpar import nnkernel as nn


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def constant_student(d_in, rep_dim, value):
    """Student whose final representation is a constant vector (zero weights)."""
    proj = nn.DenseLayer(np.zeros((rep_dim, d_in)), np.zeros(rep_dim), nn.IDENTITY)
    l1 = nn.DenseLayer(np.zeros((rep_dim, rep_dim)), np.zeros(rep_dim), nn.IDENTITY)
    l2 = nn.DenseLayer(np.zeros((rep_dim, rep_dim)), np.asarray(value, dtype=float), nn.IDENTITY)
    return nn.StudentModel(proj, [l1, l2])


class StudentAsTeacher:
    """Adapter exposing a student as a teacher, for capacity-matched fixtures."""

    def __init__(self, student, n_classes=2, seed=99):
        self.student = student
        self.head = nn.DenseLayer.init(n_classes, student.rep_dim, nn.IDENTITY, make_rng(seed))

    @property
    def rep_dim(self):
        return self.student.rep_dim

    def forward(self, x):
        rep, _ = self.student.forward(x)
        return rep, self.head.forward(rep)


def tiny_task(seed=0, n=96):
    return dst.make_gaussian_task(n_classes=2, d_in=4, n_train=n, n_val=48, n_test=48,
                                  class_sep=2.5, seed=seed)


def tiny_teacher(seed=0, d_in=4, rep_dim=6, depth=2):
    return nn.TeacherModel.build(d_in, rep_dim, 8, depth, 2, make_rng(seed))


def fast_cfg(**overrides):
    base = dict(max_students=3, epochs_per_student=40, batch_size=32, learning_rate=3e-3,
                pruning_epochs=15, seed=0)
    base.update(overrides)
    return dst.DistillConfig(**base)


def test_training_bounds_take_their_limit_and_refuse_past_it():
    dst.check_steps("epochs", dst.MAX_OPTIMIZER_STEPS, 32, 32)  # one batch an epoch
    with pytest.raises(ValueError, match=f"epochs: {2 * dst.MAX_OPTIMIZER_STEPS:,} optimizer steps "
                                         rf"\({dst.MAX_OPTIMIZER_STEPS:,} epochs of 2 batches\)"):
        dst.check_steps("epochs", dst.MAX_OPTIMIZER_STEPS, 33, 32)
    with pytest.raises(ValueError, match="n_train, n_val, n_test and d_in"):  # refused before any draw
        dst.make_gaussian_task(d_in=10, n_train=dst.MAX_TASK_FLOATS // 10, n_val=1, n_test=1)


# -- EnsembleState.rep -----------------------------------------------------------


def test_ensemble_rep_single_student_is_identity_multiplier():
    s = constant_student(3, 2, [1.0, 0.0])
    state = dst.EnsembleState([s], [1.0])
    np.testing.assert_array_equal(state.rep(np.zeros(3), 1), [1.0, 0.0])


def test_ensemble_rep_two_students_weighted_sum():
    s0 = constant_student(3, 2, [1.0, 0.0])
    s1 = constant_student(3, 2, [0.0, 2.0])
    state = dst.EnsembleState([s0, s1], [1.0, 0.5])
    np.testing.assert_allclose(state.rep(np.zeros(3), 2), [1.0, 1.0])


def test_ensemble_rep_matches_scalar_loop_oracle():
    rng = make_rng(1)
    students = [nn.StudentModel.build(3, 4, 2, rng) for _ in range(3)]
    alphas = [1.0, 0.7, -0.4]
    state = dst.EnsembleState(students, alphas)
    x = rng.normal(size=3)
    expected = np.zeros(4)
    for a, s in zip(alphas, students):
        f, _ = s.forward(x)
        for i in range(4):
            expected[i] += a * f[i]
    np.testing.assert_allclose(state.rep(x[None, :], 3)[0], expected, rtol=1e-12)


def test_ensemble_rep_k_out_of_range():
    state = dst.EnsembleState([constant_student(3, 2, [1, 1])], [1.0])
    with pytest.raises(ValueError):
        state.rep(np.zeros(3), 2)


def test_first_multiplier_pinned_to_one():
    with pytest.raises(ValueError):
        dst.EnsembleState([constant_student(3, 2, [1, 1])], [0.5])


# -- losses ----------------------------------------------------------------------


def _check_width(*vecs):
    w = np.asarray(vecs[0]).shape[-1]
    for v in vecs[1:]:
        if np.asarray(v).shape[-1] != w:
            raise ValueError("representation width mismatch")


def boost_loss(t_rep, prev_ensemble, s_final) -> float:
    """Oracle: half squared error of (teacher - ensemble - student)."""
    _check_width(t_rep, prev_ensemble, s_final)
    r = np.asarray(t_rep) - np.asarray(prev_ensemble) - np.asarray(s_final)
    return 0.5 * float(np.sum(r * r))


def stack_loss(prev_ensemble, s_mid) -> float:
    """Oracle: half squared error of (ensemble - mid rep)."""
    _check_width(prev_ensemble, s_mid)
    q = np.asarray(prev_ensemble) - np.asarray(s_mid)
    return 0.5 * float(np.sum(q * q))


def combined_loss(t_rep, prev_ensemble, s_final, s_mid, lambda_stack: float) -> float:
    return boost_loss(t_rep, prev_ensemble, s_final) + lambda_stack * stack_loss(prev_ensemble, s_mid)


def test_boost_loss_cases():
    assert boost_loss([1, 0], [0, 0], [1, 0]) == 0.0
    assert boost_loss([1, 0], [0, 0], [0, 0]) == 0.5
    assert boost_loss([2, 1], [1, 1], [0.5, 0]) == pytest.approx(0.125, abs=0)


def test_stack_loss_cases():
    assert stack_loss([1, 1], [1, 1]) == 0.0
    assert stack_loss([2, 0], [0, 0]) == 2.0
    rng = make_rng(2)
    prev, mid = rng.normal(size=6), rng.normal(size=6)
    expected = 0.5 * sum((prev[i] - mid[i]) ** 2 for i in range(6))
    assert stack_loss(prev, mid) == pytest.approx(expected, rel=1e-14)


def test_combined_loss_cases():
    t, prev, s_final, s_mid = [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    assert combined_loss(t, prev, s_final, s_mid, 0.0) == boost_loss(t, prev, s_final)
    assert combined_loss([1, 0], [0, 0], [0, 0], [2, 0], 1.0) == pytest.approx(0.5 + 2.0)
    assert dst.DistillConfig().lambda_stack == 1.0  # stock balance between the two terms


def test_loss_width_mismatch():
    with pytest.raises(ValueError):
        boost_loss([1, 0], [0, 0, 0], [1, 0])
    with pytest.raises(ValueError):
        stack_loss([1, 0], [0.0])


@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_student_training_loss_is_the_combined_loss(lam):
    # one epoch of one full batch: the logged loss is the untrained student's
    # combined loss against the residual target, averaged over the samples
    teacher, splits, _, state = small_trained_state(seed=5, max_students=1)
    data = splits.train
    cfg = fast_cfg(lambda_stack=lam, epochs_per_student=1, batch_size=len(data),
                   subsample_top_pct=50.0, subsample_rand_pct=50.0)
    before = state.students[-1].copy()
    _, losses = dst.train_one_student(teacher, state, data, cfg, round_index=1)
    t = teacher.forward(data.inputs)[0]
    prev = state.rep(data.inputs)
    s_final, s_mid = before.forward(data.inputs)
    assert losses[0] == pytest.approx(combined_loss(t, prev, s_final, s_mid, lam) / len(data), rel=1e-12)


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("batch_size", 2.5), ("batch_size", True), ("max_students", 0),
    ("epochs_per_student", -1), ("pruning_epochs", -1), ("pruning_epochs", 1.0),
    ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", math.nan),
    ("learning_rate", math.inf),
])
def test_distill_config_rejects_bad_training_knobs(field, value):
    with pytest.raises(ValueError, match=field):
        dst.DistillConfig(**{field: value})


def test_distill_config_accepts_zero_pruning_epochs():
    assert dst.DistillConfig(pruning_epochs=0, max_students=1, batch_size=1).pruning_epochs == 0


# -- line search and boosting step -------------------------------------------------


def grid_scan_alpha(t, prev, s, lo=-4.0, hi=4.0, step=1e-4):
    """Argmin of the summed quadratic over a dense grid (independent of the closed form)."""
    r = np.asarray(t) - np.asarray(prev)
    s = np.asarray(s)
    grid = np.arange(lo, hi + step, step)
    big_r = float(np.sum(r * r))
    cross = float(np.sum(r * s))
    ss = float(np.sum(s * s))
    losses = 0.5 * (big_r - 2.0 * grid * cross + grid**2 * ss)
    return float(grid[np.argmin(losses)])


def direct_grid_scan_alpha(t, prev, s, lo=-4.0, hi=4.0, step=1e-3):
    """Brute-force loss evaluation per grid point; slow, for spot checks."""
    best_alpha, best_loss = None, np.inf
    alpha = lo
    while alpha <= hi + 1e-12:
        r = np.asarray(t) - np.asarray(prev) - alpha * np.asarray(s)
        loss = 0.5 * float(np.sum(r * r))
        if loss < best_loss:
            best_alpha, best_loss = alpha, loss
        alpha += step
    return best_alpha


def test_line_search_exact_residual_fit():
    rng = make_rng(3)
    s = rng.normal(size=(5, 4))
    prev = rng.normal(size=(5, 4))
    t = prev + s
    assert dst.line_search_alpha(t, prev, s) == pytest.approx(1.0, rel=1e-12)


def test_line_search_orthogonal_gives_zero():
    t = np.array([[1.0, 0.0]])
    prev = np.zeros((1, 2))
    s = np.array([[0.0, 1.0]])
    assert dst.line_search_alpha(t, prev, s) == 0.0


def test_line_search_matches_grid_scan():
    rng = make_rng(4)
    for _ in range(20):
        s = rng.normal(size=(6, 5))
        prev = rng.normal(size=(6, 5))
        t = prev + rng.uniform(-2, 2) * s + 0.3 * rng.normal(size=(6, 5))
        closed = dst.line_search_alpha(t, prev, s)
        assert abs(closed - grid_scan_alpha(t, prev, s)) <= 1e-4


def test_line_search_matches_direct_scan_spot_check():
    rng = make_rng(5)
    s = rng.normal(size=(4, 3))
    prev = rng.normal(size=(4, 3))
    t = prev + 0.8 * s + 0.1 * rng.normal(size=(4, 3))
    closed = dst.line_search_alpha(t, prev, s)
    assert abs(closed - direct_grid_scan_alpha(t, prev, s)) <= 1e-3


def test_anyboost_step_identities():
    rng = make_rng(6)
    s = rng.normal(size=(5, 4))
    prev = rng.normal(size=(5, 4))
    t = rng.normal(size=(5, 4))
    ls = dst.line_search_alpha(t, prev, s)
    assert dst.anyboost_step(t, prev, s, lipschitz=1.0) == ls  # bitwise
    assert dst.anyboost_step(t, prev, s, lipschitz=2.0) == ls / 2.0


def test_anyboost_halting_probe_fires_on_anticorrelation():
    s = np.array([[1.0, 0.0]])
    prev = np.zeros((1, 2))
    t = np.array([[-0.3, 0.0]])  # inner product -0.3
    alpha, inner, halted = dst.halting_probe(t, prev, s)
    assert inner == pytest.approx(-0.3)
    assert alpha <= 0.0
    assert halted


def test_degenerate_student_rejected():
    t = np.ones((3, 2))
    prev = np.zeros((3, 2))
    s = np.zeros((3, 2))
    with pytest.raises(ValueError):
        dst.line_search_alpha(t, prev, s)


# -- residual_subsample -------------------------------------------------------------


def subsample_oracle(n, norms, a, b, seed):
    n_top = math.ceil(a / 100.0 * n)
    n_rand = math.ceil(b / 100.0 * n)
    order = sorted(range(n), key=lambda i: (-norms[i], i))
    top = order[:n_top]
    remainder = np.array(sorted(order[n_top:]), dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    picked = rng.choice(remainder, size=n_rand, replace=False) if n_rand else []
    return list(top) + list(picked)


def indexed_dataset(n, d=3):
    # inputs[i][0] == i so subset identity is visible in the output
    x = np.zeros((n, d))
    x[:, 0] = np.arange(n)
    return dst.Dataset(x, np.zeros(n, dtype=int))


def test_subsample_all_top_sorts_descending():
    data = indexed_dataset(10)
    norms = np.arange(10, dtype=float)
    out = dst.residual_subsample(data, norms, a=100, b=0, seed=0)
    assert list(out.inputs[:, 0]) == list(range(9, -1, -1))


def test_subsample_forced_top_two():
    data = indexed_dataset(10)
    norms = np.array([9.0, 8, 7, 6, 5, 4, 3, 2, 1, 0])
    out = dst.residual_subsample(data, norms, a=20, b=0, seed=0)
    assert sorted(out.inputs[:, 0]) == [0, 1]


def test_subsample_matches_sort_then_sample_oracle():
    data = indexed_dataset(10)
    rng = make_rng(7)
    norms = rng.normal(size=10)
    seed = 1234
    out = dst.residual_subsample(data, norms, a=20, b=30, seed=seed)
    assert list(out.inputs[:, 0].astype(int)) == subsample_oracle(10, norms, 20, 30, seed)
    assert len(out) == 2 + 3


def test_subsample_size_and_no_duplicates():
    data = indexed_dataset(37)
    rng = make_rng(8)
    norms = rng.normal(size=37)
    out = dst.residual_subsample(data, norms, a=13, b=29, seed=5)
    ids = list(out.inputs[:, 0].astype(int))
    assert len(ids) == math.ceil(0.13 * 37) + math.ceil(0.29 * 37)
    assert len(set(ids)) == len(ids)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    a=st.integers(min_value=0, max_value=100),
    b=st.integers(min_value=0, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_subsample_size_property(n, a, b, seed):
    if a + b > 100 or (a == 0 and b == 0):
        return
    # both counts round up, so tiny datasets can make the pools collide
    if math.ceil(a / 100 * n) + math.ceil(b / 100 * n) > n:
        data = indexed_dataset(n)
        with pytest.raises(ValueError):
            dst.residual_subsample(data, np.ones(n), a, b, seed)
        return
    data = indexed_dataset(n)
    norms = np.random.Generator(np.random.PCG64(seed)).normal(size=n)
    out = dst.residual_subsample(data, norms, a, b, seed)
    ids = list(out.inputs[:, 0].astype(int))
    assert len(ids) == math.ceil(a / 100 * n) + math.ceil(b / 100 * n)
    assert len(set(ids)) == len(ids)


def test_subsample_tie_break_by_lower_index():
    data = indexed_dataset(4)
    norms = np.array([1.0, 1.0, 1.0, 1.0])
    out = dst.residual_subsample(data, norms, a=50, b=0, seed=0)
    assert list(out.inputs[:, 0]) == [0, 1]


def test_subsample_empty_is_an_error():
    data = indexed_dataset(5)
    with pytest.raises(ValueError):
        dst.residual_subsample(data, np.ones(5), a=0, b=0, seed=0)


# -- soft cross entropy ----------------------------------------------------------


def soft_ce_oracle(s, t, tau):
    """Scalar loop with explicit log-sum-exp stabilization."""
    s = [v / tau for v in s]
    t = [v / tau for v in t]
    mt = max(t)
    zt = sum(math.exp(v - mt) for v in t)
    pt = [math.exp(v - mt) / zt for v in t]
    ms = max(s)
    log_zs = ms + math.log(sum(math.exp(v - ms) for v in s))
    return -sum(pt[c] * (s[c] - log_zs) for c in range(len(s)))


def test_soft_ce_uniform_two_class():
    assert dst.soft_cross_entropy([0.0, 0.0], [0.0, 0.0], 1.0) == pytest.approx(math.log(2), rel=1e-12)


def test_soft_ce_sharp_match_near_zero():
    assert dst.soft_cross_entropy([10.0, -10.0], [10.0, -10.0], 1.0) <= 1e-4


def test_soft_ce_matches_scalar_oracle():
    rng = make_rng(9)
    for _ in range(10):
        s = rng.normal(size=4) * 3
        t = rng.normal(size=4) * 3
        tau = float(rng.uniform(0.5, 3.0))
        assert dst.soft_cross_entropy(s, t, tau) == pytest.approx(soft_ce_oracle(list(s), list(t), tau), rel=1e-10)


def test_soft_ce_rejects_nonfinite():
    with pytest.raises(ValueError):
        dst.soft_cross_entropy([float("inf"), 0.0], [0.0, 0.0], 1.0)


# -- train_one_student -----------------------------------------------------------


def test_self_distillation_fixed_point():
    rng = make_rng(10)
    base = nn.StudentModel.build(4, 6, 2, rng)
    teacher = StudentAsTeacher(base)
    splits = tiny_task(seed=3)
    cfg = fast_cfg(lambda_stack=0.0, epochs_per_student=3)
    student, losses = dst.train_one_student(
        teacher, dst.EnsembleState(), splits.train, cfg, seed_student=base
    )
    assert losses[0] == 0.0  # exact copy of the teacher: zero loss from epoch 0
    for name, arr in student.parameters().items():
        assert np.array_equal(arr, base.parameters()[name])  # zero gradients move nothing


def test_first_student_target_is_teacher_rep():
    # with no previous students the residual target collapses to T(x)
    teacher = tiny_teacher(seed=11)
    splits = tiny_task(seed=4, n=64)
    cfg = fast_cfg(epochs_per_student=60)
    student, _ = dst.train_one_student(teacher, dst.EnsembleState(), splits.train, cfg)
    t = teacher.forward(splits.train.inputs)[0]
    s = student.forward(splits.train.inputs)[0]
    before = 0.5 * np.mean(np.sum(t * t, axis=1))
    after = 0.5 * np.mean(np.sum((t - s) ** 2, axis=1))
    assert after < before  # moved toward the teacher representation


def test_training_loss_improves_over_epochs():
    teacher = tiny_teacher(seed=12)
    splits = tiny_task(seed=5, n=64)
    cfg = fast_cfg(epochs_per_student=200)
    _, losses = dst.train_one_student(teacher, dst.EnsembleState(), splits.train, cfg)
    assert losses[-1] < losses[0]


def test_teacher_and_previous_students_untouched():
    teacher = tiny_teacher(seed=13)
    splits = tiny_task(seed=6, n=64)
    cfg = fast_cfg(epochs_per_student=10)
    s0, _ = dst.train_one_student(teacher, dst.EnsembleState(), splits.train, cfg)
    state = dst.EnsembleState([s0], [1.0])
    teacher_bytes = {k: v.tobytes() for k, v in teacher.parameters().items()}
    s0_bytes = {k: v.tobytes() for k, v in s0.parameters().items()}
    dst.train_one_student(teacher, state, splits.train, cfg, round_index=1)
    assert all(teacher.parameters()[k].tobytes() == v for k, v in teacher_bytes.items())
    assert all(s0.parameters()[k].tobytes() == v for k, v in s0_bytes.items())


# -- sequential_training -----------------------------------------------------------


def test_capacity_matched_teacher_stops_with_one_student():
    rng = make_rng(14)
    base = nn.StudentModel.build(4, 6, 2, rng)
    teacher = StudentAsTeacher(base)
    splits = tiny_task(seed=7)
    cfg = fast_cfg(epochs_per_student=20, max_students=4)
    state, records = dst.sequential_training(teacher, splits, cfg, seed_student=base)
    assert len(state) == 1
    assert dst.residual_mse(teacher, state, splits.validation) < 1e-6


def test_train_mse_nonincreasing_in_k():
    for seed in (0, 1, 2):
        teacher = tiny_teacher(seed=20 + seed, depth=3)
        splits = tiny_task(seed=seed)
        cfg = fast_cfg(seed=seed, max_students=4, epochs_per_student=60)
        state, _ = dst.sequential_training(teacher, splits, cfg)
        mses = [dst.residual_mse(teacher, state, splits.train, k) for k in range(1, len(state) + 1)]
        for a, b in zip(mses, mses[1:]):
            assert b <= a + 1e-9, f"seed {seed}: train residual MSE increased: {mses}"


def test_validation_mse_monotone_until_overfit_round():
    teacher = tiny_teacher(seed=30, depth=3)
    splits = tiny_task(seed=8)
    cfg = fast_cfg(max_students=5, epochs_per_student=60)
    _, records = dst.sequential_training(teacher, splits, cfg)
    kept = [r for r in records if not r.halted]
    for a, b in zip(kept, kept[1:-1] if len(kept) > 2 else []):
        assert b.residual_mse <= a.residual_mse + 1e-9


def test_sequential_training_deterministic():
    teacher = tiny_teacher(seed=31, depth=2)
    splits = tiny_task(seed=9)
    cfg = fast_cfg(seed=77, max_students=3, epochs_per_student=30)
    s1, r1 = dst.sequential_training(teacher.copy(), splits, cfg)
    s2, r2 = dst.sequential_training(teacher.copy(), splits, cfg)
    assert [vars(a) for a in r1] == [vars(b) for b in r2]
    assert s1.multipliers == s2.multipliers
    for a, b in zip(s1.students, s2.students):
        for name in a.parameters():
            assert np.array_equal(a.parameters()[name], b.parameters()[name])


def test_halting_on_anticorrelated_student(monkeypatch):
    teacher = tiny_teacher(seed=32, depth=2)
    splits = tiny_task(seed=10)
    cfg = fast_cfg(max_students=4, epochs_per_student=30)
    real = dst.train_one_student

    def sign_flipped(teacher_, state, data, cfg_, round_index=0, seed_student=None, student_depth=2):
        student, losses = real(teacher_, state, data, cfg_, round_index, seed_student, student_depth)
        if round_index >= 1:
            # tanh is odd: negating the last layer negates the final representation
            student.layers[-1].weight *= -1.0
            student.layers[-1].bias *= -1.0
        return student, losses

    monkeypatch.setattr(dst, "train_one_student", sign_flipped)
    state, records = dst.sequential_training(teacher, splits, cfg)
    assert records[-1].halted
    assert records[-1].inner_product <= 0.0
    assert len(state) == 1  # the anticorrelated student was discarded


def test_alpha_equals_line_search_value_at_fit_time():
    teacher = tiny_teacher(seed=33, depth=3)
    splits = tiny_task(seed=11)
    cfg = fast_cfg(max_students=3, epochs_per_student=60)
    state, records = dst.sequential_training(teacher, splits, cfg)
    assert state.multipliers[0] == 1.0
    # re-derive each later multiplier from the stored students
    t = teacher.forward(splits.train.inputs)[0]
    for k in range(1, len(state)):
        prev = state.rep(splits.train.inputs, k)
        s = state.students[k].forward(splits.train.inputs)[0]
        assert state.multipliers[k] == pytest.approx(dst.line_search_alpha(t, prev, s), rel=1e-12)


def test_empty_data_is_an_error():
    teacher = tiny_teacher(seed=34)
    empty = dst.Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int))
    splits = dst.DataSplits(empty, empty, empty, 2)
    with pytest.raises(ValueError):
        dst.sequential_training(teacher, splits, fast_cfg())


# -- adaptive pruning ---------------------------------------------------------------


def small_trained_state(seed=0, max_students=2):
    teacher = tiny_teacher(seed=40 + seed, depth=2)
    splits = tiny_task(seed=seed)
    cfg = fast_cfg(seed=seed, max_students=max_students, epochs_per_student=40)
    state, _ = dst.sequential_training(teacher, splits, cfg)
    return teacher, splits, cfg, state


def test_pruning_single_student_reduces_to_plain_distillation():
    teacher, splits, cfg, state = small_trained_state(max_students=1)
    state, table, best_k = dst.adaptive_pruning(teacher, state, splits, cfg)
    assert len(table) == 1 and best_k == 1
    assert state.classifier is not None


def test_pruning_table_has_one_row_per_prefix():
    teacher, splits, cfg, state = small_trained_state(seed=1, max_students=3)
    m = len(state)
    _, table, best_k = dst.adaptive_pruning(teacher, state, splits, cfg)
    assert [row[0] for row in table.rows] == list(range(1, m + 1))
    assert 1 <= best_k <= m
    assert all(0.0 <= row[1] <= 1.0 and 0.0 <= row[2] <= 1.0 for row in table.rows)


def test_accumulated_gradients_match_summed_loss_finite_differences():
    teacher, splits, cfg, state = small_trained_state(seed=2, max_students=2)
    state.classifier = nn.DenseLayer.init(2, teacher.rep_dim, nn.IDENTITY, make_rng(50))
    xb = splits.train.inputs[:8]
    t_logits = teacher.forward(xb)[1]
    grad, _ = dst.accumulate_prefix_gradients(state, xb, t_logits, temperature=1.0)

    params, grads = nn._views(state.flat, state.layout), nn._views(grad, state.layout)

    def total_loss():
        total = 0.0
        rep = None
        for k in range(1, len(state) + 1):
            rep = state.rep(xb, k)
            total += dst.soft_cross_entropy(state.classifier.forward(rep), t_logits, 1.0)
        return total

    rng = make_rng(51)
    step = 1e-5
    checked = 0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + step
            lp = total_loss()
            flat[idx] = orig - step
            lm = total_loss()
            flat[idx] = orig
            numeric = (lp - lm) / (2 * step)
            analytic = grads[name].reshape(-1)[idx]
            denom = max(abs(numeric), abs(analytic), 1e-6)
            assert abs(numeric - analytic) / denom <= 1e-4, f"{name}[{idx}]"
            checked += 1
    assert checked > 20


def quadratic_prefix_gradients(state, xb, teacher_logits, temperature):
    """Reference: per prefix k, a classifier round trip, then a backward of every student j <= k."""
    clf = state.classifier
    finals = [student.forward(xb)[0] for student in state.students]
    grads = {"classifier.weight": np.zeros_like(clf.weight), "classifier.bias": np.zeros_like(clf.bias)}
    for j, student in enumerate(state.students):
        for name, arr in student.parameters().items():
            grads[f"students.{j}.{name}"] = np.zeros_like(arr)
    total, rep = 0.0, np.zeros_like(finals[0])
    t_soft = dst._softmax(teacher_logits / temperature)
    for k in range(1, len(state) + 1):
        rep = rep + state.multipliers[k - 1] * finals[k - 1]
        logits = clf.forward(rep)
        total += dst.soft_cross_entropy(logits, teacher_logits, temperature)
        d_logits = (dst._softmax(logits / temperature) - t_soft) / (temperature * len(xb))
        d_rep, dw, db = clf.backward(d_logits)
        grads["classifier.weight"] += dw
        grads["classifier.bias"] += db
        for j in range(k):
            grad = state.students[j].backward(state.multipliers[j] * d_rep, None)
            for name, g in nn._views(grad, state.students[j].layout).items():
                grads[f"students.{j}.{name}"] += g
    return grads, total


def random_pruning_state(m, seed, d_in=5, rep_dim=6, n_classes=3):
    rng = make_rng(seed)
    students = [nn.StudentModel.build(d_in, rep_dim, 2, rng) for _ in range(m)]
    state = dst.EnsembleState(students, [1.0, *rng.uniform(-1.5, 1.5, size=m - 1)])
    state.classifier = nn.DenseLayer.init(n_classes, rep_dim, nn.IDENTITY, rng)
    return state, rng.normal(size=(32, d_in)), 3.0 * rng.normal(size=(32, n_classes))


@pytest.mark.parametrize("m", [1, 2, 3, 8])
@pytest.mark.parametrize("temperature", [1.0, 2.0])
def test_prefix_gradients_match_quadratic_reference(m, temperature):
    state, xb, t_logits = random_pruning_state(m, seed=70 + m)
    assert m == 1 or any(a not in (0.0, 1.0) for a in state.multipliers[1:])
    grad, loss = dst.accumulate_prefix_gradients(state, xb, t_logits, temperature)
    expected, expected_loss = quadratic_prefix_gradients(state, xb, t_logits, temperature)
    layout = state.layout
    assert [name for name, *_ in layout] == list(expected) and grad.shape == (layout[-1][2],)
    grads = nn._views(grad, layout)
    for name, ref in expected.items():
        np.testing.assert_allclose(grads[name], ref, rtol=1e-12, atol=1e-14, err_msg=name)
    assert loss == pytest.approx(expected_loss, rel=1e-12, abs=0)


def test_prefix_gradients_back_propagate_the_bank_once(monkeypatch):
    m = 8
    state, xb, t_logits = random_pruning_state(m, seed=80)
    per_student, stacked = [], []
    backward, bank_backward = nn.StudentModel.backward, dst._bank_backward

    def counting(self, *args, **kwargs):
        per_student.append(self)
        return backward(self, *args, **kwargs)

    def counting_bank(layers, x, acts, d_final, grads):
        stacked.append((d_final.shape, grads.shape))
        return bank_backward(layers, x, acts, d_final, grads)

    monkeypatch.setattr(nn.StudentModel, "backward", counting)
    monkeypatch.setattr(dst, "_bank_backward", counting_bank)
    for _ in range(3):
        dst.accumulate_prefix_gradients(state, xb, t_logits, temperature=2.0)
    assert per_student == []
    p = state.students[0].flat.size
    assert stacked == [((m, len(xb), 6), (m, p))] * 3


def test_prefix_gradients_reject_non_finite_logits():
    state, xb, t_logits = random_pruning_state(3, seed=81)
    t_logits[4, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        dst.accumulate_prefix_gradients(state, xb, t_logits, temperature=1.0)


# (name, start, stop, shape) of every parameter: the names that gradients, the
# NaN message and checkpoint comparisons use, written out here by hand
PINNED_TEACHER_LAYOUT = [
    ("input_proj.weight", 0, 12, (4, 3)),
    ("input_proj.bias", 12, 16, (4,)),
    ("blocks.0.expand.weight", 16, 36, (5, 4)),
    ("blocks.0.expand.bias", 36, 41, (5,)),
    ("blocks.0.project.weight", 41, 61, (4, 5)),
    ("blocks.0.project.bias", 61, 65, (4,)),
    ("blocks.1.expand.weight", 65, 85, (5, 4)),
    ("blocks.1.expand.bias", 85, 90, (5,)),
    ("blocks.1.project.weight", 90, 110, (4, 5)),
    ("blocks.1.project.bias", 110, 114, (4,)),
    ("head.weight", 114, 122, (2, 4)),
    ("head.bias", 122, 124, (2,)),
]
PINNED_STUDENT_LAYOUT = [
    ("input_proj.weight", 0, 12, (4, 3)),
    ("input_proj.bias", 12, 16, (4,)),
    ("layers.0.weight", 16, 32, (4, 4)),
    ("layers.0.bias", 32, 36, (4,)),
    ("layers.1.weight", 36, 52, (4, 4)),
    ("layers.1.bias", 52, 56, (4,)),
    ("layers.2.weight", 56, 72, (4, 4)),
    ("layers.2.bias", 72, 76, (4,)),
]
PINNED_PRUNING_LAYOUT = [
    ("classifier.weight", 0, 8, (2, 4)),
    ("classifier.bias", 8, 10, (2,)),
    ("students.0.input_proj.weight", 10, 22, (4, 3)),
    ("students.0.input_proj.bias", 22, 26, (4,)),
    ("students.0.layers.0.weight", 26, 42, (4, 4)),
    ("students.0.layers.0.bias", 42, 46, (4,)),
    ("students.0.layers.1.weight", 46, 62, (4, 4)),
    ("students.0.layers.1.bias", 62, 66, (4,)),
    ("students.1.input_proj.weight", 66, 78, (4, 3)),
    ("students.1.input_proj.bias", 78, 82, (4,)),
    ("students.1.layers.0.weight", 82, 98, (4, 4)),
    ("students.1.layers.0.bias", 98, 102, (4,)),
    ("students.1.layers.1.weight", 102, 118, (4, 4)),
    ("students.1.layers.1.bias", 118, 122, (4,)),
]


def test_parameter_layouts_are_pinned():
    rng = make_rng(0)
    teacher = nn.TeacherModel.build(3, 4, 5, 2, 2, rng)
    student = nn.StudentModel.build(3, 4, 3, rng)
    state = dst.EnsembleState([nn.StudentModel.build(3, 4, 2, rng) for _ in range(2)], [1.0, 0.5],
                              nn.DenseLayer.init(2, 4, nn.IDENTITY, rng))
    for got, pinned, names in (
        (teacher.layout, PINNED_TEACHER_LAYOUT, teacher.parameters()),
        (student.layout, PINNED_STUDENT_LAYOUT, student.parameters()),
        (state.layout, PINNED_PRUNING_LAYOUT, nn._views(state.flat, state.layout)),
    ):
        assert [(name, start, stop, tuple(shape)) for name, start, stop, shape in got] == pinned
        assert list(names) == [name for name, *_ in pinned]


def assert_state_is_one_buffer(state):
    """``state.layout`` tiles ``state.flat`` from 0 to its end, and every student's
    and the classifier's parameters are views into it."""
    stops = [0] + [stop for _, _, stop, _ in state.layout]
    assert [start for _, start, _, _ in state.layout] == stops[:-1] and stops[-1] == state.flat.size
    views = nn._views(state.flat, state.layout)
    for j, student in enumerate(state.students):
        assert np.shares_memory(student.flat, state.flat)
        for name, arr in student.parameters().items():
            assert np.shares_memory(arr, student.flat)
            assert arr.ctypes.data == views[f"students.{j}.{name}"].ctypes.data
    if state.classifier is not None:
        assert state.classifier.weight.ctypes.data == views["classifier.weight"].ctypes.data
        assert state.classifier.bias.ctypes.data == views["classifier.bias"].ctypes.data


def test_the_state_is_one_buffer_with_its_classifier_and_students():
    teacher, splits, cfg, state = small_trained_state(seed=2, max_students=2)
    assert state.classifier is None and state.layout[0][0].startswith("students.0.")
    assert_state_is_one_buffer(state)
    before = state.rep(splits.validation.inputs)
    classifier = nn.DenseLayer.init(2, teacher.rep_dim, nn.IDENTITY, make_rng(52))
    weight = classifier.weight.copy()
    state.classifier = classifier
    np.testing.assert_array_equal(state.rep(splits.validation.inputs), before)
    assert state.layout[0][0] == "classifier.weight" and np.shares_memory(classifier.weight, state.flat)
    np.testing.assert_array_equal(classifier.weight, weight)
    assert_state_is_one_buffer(state)
    views = nn._views(state.flat, state.layout)
    np.testing.assert_array_equal(np.concatenate([a.reshape(-1) for a in views.values()]), state.flat)

    state.add(state.students[-1].copy(), 0.5)
    assert len(state) == 3
    assert_state_is_one_buffer(state)
    state.drop_last()
    assert len(state) == 2
    assert_state_is_one_buffer(state)
    np.testing.assert_array_equal(state.rep(splits.validation.inputs), before)

    loaded = dst.ensemble_from_dict(dst.ensemble_to_dict(state))
    assert_state_is_one_buffer(loaded)
    np.testing.assert_array_equal(loaded.flat, state.flat)
    assert loaded.layout == state.layout and np.shares_memory(loaded.classifier.weight, loaded.flat)

    xb = splits.train.inputs[:8]
    grad, _ = dst.accumulate_prefix_gradients(state, xb, teacher.forward(xb)[1], temperature=1.0)
    assert grad.shape == state.flat.shape
    clf_before, student_before = state.classifier.weight.copy(), state.students[1].flat.copy()
    nn.Optimizer(kind=nn.SGD, learning_rate=0.1).step(state, grad)
    assert not np.array_equal(state.classifier.weight, clf_before)
    assert not np.array_equal(state.students[1].flat, student_before)

    state.flat[...] = 0.0
    assert not state.rep(splits.validation.inputs).any()


@pytest.mark.parametrize("kind,name,idx", [
    ("pruning", "students.1.layers.0.weight", (1, 2)),
    ("teacher", "blocks.1.expand.bias", (3,)),
    ("student", "layers.1.weight", (0, 2)),
], ids=["pruning", "teacher", "student"])
def test_nan_student_gradient_names_the_parameter_and_changes_nothing(kind, name, idx):
    teacher, splits, cfg, state = small_trained_state(seed=2, max_students=2)
    assert len(state) == 2
    xb = splits.train.inputs[:8]
    t_logits = teacher.forward(xb)[1]
    if kind == "pruning":
        state.classifier = nn.DenseLayer.init(2, teacher.rep_dim, nn.IDENTITY, make_rng(53))
        model = state

        def gradient():
            return dst.accumulate_prefix_gradients(state, xb, t_logits, temperature=1.0)[0]
    else:
        model = teacher if kind == "teacher" else state.students[1]

        def gradient():
            return model.backward(*(np.ones_like(out) for out in model.forward(xb)))
    opt = nn.Optimizer(kind=nn.ADAM, learning_rate=cfg.learning_rate)
    opt.step(model, gradient())  # moments are nonzero from here on
    grad = gradient()
    nn._views(grad, model.layout)[name][idx] = np.nan
    buffers = [model.flat, opt._m, opt._v, grad, teacher.flat, *(s.flat for s in state.students)]
    snapshot = [b.copy() for b in buffers]
    with pytest.raises(ValueError, match=f"non-finite gradient for '{name}'; parameters left unchanged"):
        opt.step(model, grad)
    for buf, saved in zip(buffers, snapshot):
        np.testing.assert_array_equal(buf, saved)
    assert opt._t == 1


def test_best_k_tie_breaks_to_smaller():
    rows = [(1, 0.9, 0.9), (2, 0.9, 0.91), (3, 0.89, 0.9)]
    # re-implement the pick the way adaptive_pruning does, on a frozen table
    best_k, best = 1, -1.0
    for k, va, _ in rows:
        if va > best:
            best_k, best = k, va
    assert best_k == 1


def test_pruning_rejects_empty_state():
    teacher, splits, cfg, _ = small_trained_state(seed=3, max_students=1)
    with pytest.raises(ValueError):
        dst.adaptive_pruning(teacher, dst.EnsembleState(), splits, cfg)


# -- accuracy table export ------------------------------------------------------------


def test_export_single_row_exact_body(tmp_path):
    table = dst.AccuracyTable([(1, 0.9, 0.89)])
    path = tmp_path / "acc.csv"
    dst.export_accuracy_table(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,val_acc,test_acc"
    assert lines[1] == "1,0.900000,0.890000"


def test_export_round_trip(tmp_path):
    table = dst.AccuracyTable([(1, 0.912345, 0.890123), (2, 0.95, 0.94), (3, 0.951, 0.9405)])
    path = tmp_path / "acc.csv"
    dst.export_accuracy_table(table, path)
    loaded = dst.load_accuracy_table(path)
    for (k1, v1, t1), (k2, v2, t2) in zip(table.rows, loaded.rows):
        assert k1 == k2
        assert v2 == pytest.approx(v1, abs=5e-7)  # 6-decimal fixed formatting
        assert t2 == pytest.approx(t1, abs=5e-7)


def test_export_three_rows_in_order(tmp_path):
    table = dst.AccuracyTable([(1, 0.1, 0.1), (2, 0.2, 0.2), (3, 0.3, 0.3)])
    path = tmp_path / "acc.csv"
    dst.export_accuracy_table(table, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "2", "3"]


def test_table_rejects_gaps():
    with pytest.raises(ValueError):
        dst.AccuracyTable([(1, 0.9, 0.9), (3, 0.8, 0.8)])


# -- ensemble checkpoints --------------------------------------------------------------


def test_ensemble_round_trip(tmp_path):
    teacher, splits, cfg, state = small_trained_state(seed=4, max_students=2)
    state.classifier = nn.DenseLayer.init(2, teacher.rep_dim, nn.IDENTITY, make_rng(60))
    path = tmp_path / "ensemble.json"
    dst.save_ensemble(state, path)
    loaded = dst.load_ensemble(path)
    assert loaded.multipliers == state.multipliers
    x = splits.validation.inputs[:5]
    np.testing.assert_array_equal(loaded.rep(x), state.rep(x))
    np.testing.assert_array_equal(loaded.classifier.weight, state.classifier.weight)


# -- pinned training outputs -------------------------------------------------------------

# sha256 prefixes of each artifact of the toy pipeline below, recorded before the
# kernel moved to flat parameter buffers; any change in float summation order or
# in the optimizer's arithmetic shows up here. The two "ensemble" hashes were
# re-pinned when the pruning pass began summing prefix gradients over suffixes
# (same gradient, different float summation order; was c3c71df2d8a308ef for
# Adam and 297120b02c4516b6 for SGD). The two "records" hashes were re-pinned
# when ConvergenceRecord lost its constant lipschitz field; each equals the old
# records with that one key removed (was 0877c1891020d1ff for Adam and
# 5946accd48cdf740 for SGD).
PINNED_TRAINING = {
    nn.ADAM: {"teacher": "f975af0bcd87ffc5", "ensemble": "a05ba023611dbd9d",
              "records": "4f0e1bf0facec962", "table": "f9c0087d14f5d17b"},
    nn.SGD: {"teacher": "69728be5462d2ca1", "ensemble": "b242c4ef449df6bf",
             "records": "9c6eb3deec4bb3ee", "table": "d877f5d95726b7a6"},
}


@pytest.mark.parametrize("teacher_optimizer", list(PINNED_TRAINING))
def test_training_outputs_match_pinned_hashes(tmp_path, teacher_optimizer):
    splits = tiny_task(seed=7)
    teacher = tiny_teacher(seed=7)
    losses = dst.train_teacher(teacher, splits, epochs=6, learning_rate=3e-3, seed=7,
                               optimizer_kind=teacher_optimizer)
    cfg = fast_cfg(seed=7, max_students=3, epochs_per_student=8, pruning_epochs=4,
                   min_improvement=-1.0)
    state, records = dst.sequential_training(teacher, splits, cfg)
    state, table, best_k = dst.adaptive_pruning(teacher, state, splits, cfg)
    nn.save_model(teacher, tmp_path / "teacher.json")
    dst.save_ensemble(state, tmp_path / "ensemble.json")

    def digest(blob: bytes) -> str:
        return hashlib.sha256(blob).hexdigest()[:16]

    got = {
        "teacher": digest((tmp_path / "teacher.json").read_bytes()),
        "ensemble": digest((tmp_path / "ensemble.json").read_bytes()),
        "records": digest(json.dumps([dataclasses.asdict(r) for r in records]).encode()),
        "table": digest(json.dumps([table.rows, best_k, losses]).encode()),
    }
    assert len(state) == 3
    assert got == PINNED_TRAINING[teacher_optimizer]
