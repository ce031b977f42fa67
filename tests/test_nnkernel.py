import json
import math

import numpy as np
import pytest

from studentpar import nnkernel as nn


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def packed_tape(grads):
    """Name -> array gradients packed in order into one flat array: the gradient of
    a model whose layout lists those names in that order."""
    return np.concatenate([arr.reshape(-1) for arr in grads.values()])


# -- independent oracles -------------------------------------------------------


def scalar_dense_oracle(weight, bias, x, activation):
    """Straight-line scalar recomputation of act(Wx + b)."""
    out = []
    for i in range(weight.shape[0]):
        acc = bias[i]
        for j in range(weight.shape[1]):
            acc += weight[i][j] * x[j]
        out.append(math.tanh(acc) if activation == nn.TANH else acc)
    return np.array(out)


def unrolled_teacher_oracle(teacher, x):
    """Re-derive the residual chain by hand, block by block."""
    h = scalar_dense_oracle(teacher.input_proj.weight, teacher.input_proj.bias, x, teacher.input_proj.activation)
    for block in teacher.blocks:
        a = scalar_dense_oracle(block.expand.weight, block.expand.bias, h, block.expand.activation)
        f = scalar_dense_oracle(block.project.weight, block.project.bias, a, block.project.activation)
        h = h + f
    return h


def scalar_student_oracle(student, x):
    h = scalar_dense_oracle(student.input_proj.weight, student.input_proj.bias, x, student.input_proj.activation)
    mid = None
    for i, layer in enumerate(student.layers, start=1):
        h = scalar_dense_oracle(layer.weight, layer.bias, h, layer.activation)
        if i == student.mid_index:
            mid = h
    return h, mid


# -- DenseLayer.forward --------------------------------------------------------


def test_dense_forward_identity():
    layer = nn.DenseLayer(np.eye(2), np.zeros(2), nn.IDENTITY)
    assert np.array_equal(layer.forward(np.array([3.0, -1.0])), [3.0, -1.0])


def test_dense_forward_zero_weight_tanh():
    layer = nn.DenseLayer(np.zeros((2, 2)), np.ones(2), nn.TANH)
    out = layer.forward(np.array([5.0, 5.0]))
    assert np.allclose(out, [math.tanh(1.0)] * 2, rtol=0, atol=0)


def test_dense_forward_matches_scalar_oracle():
    rng = make_rng(1)
    layer = nn.DenseLayer.init(3, 2, nn.TANH, rng)
    x = rng.normal(size=2)
    expected = scalar_dense_oracle(layer.weight, layer.bias, x, nn.TANH)
    np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-15)


def test_dense_forward_dim_mismatch():
    layer = nn.DenseLayer(np.eye(2), np.zeros(2), nn.IDENTITY)
    with pytest.raises(ValueError):
        layer.forward(np.zeros(3))


# -- TeacherModel.forward ------------------------------------------------------


def zeroed_blocks_teacher(rng, depth=3):
    t = nn.TeacherModel.build(4, 6, 8, depth, 2, rng)
    for block in t.blocks:
        for layer in (block.expand, block.project):
            layer.weight[...] = 0.0
            layer.bias[...] = 0.0
    return t


def test_teacher_zero_blocks_is_residual_identity():
    rng = make_rng(2)
    t = zeroed_blocks_teacher(rng)
    x = rng.normal(size=4)
    final_rep, _ = t.forward(x)
    proj = t.input_proj.forward(x)
    # bitwise: the residual path must add exact zeros
    assert np.array_equal(final_rep, proj)


def test_teacher_depth1_identity_block_doubles_projection():
    rng = make_rng(3)
    t = nn.TeacherModel.build(4, 6, 6, 1, 2, rng)
    block = t.blocks[0]
    for layer in (block.expand, block.project):
        layer.weight[...] = np.eye(6)
        layer.bias[...] = 0.0
        layer.activation = nn.IDENTITY
    x = rng.normal(size=4)
    final_rep, _ = t.forward(x)
    np.testing.assert_allclose(final_rep, 2.0 * t.input_proj.forward(x), rtol=1e-15)


def test_teacher_forward_matches_unrolled_oracle():
    rng = make_rng(4)
    t = nn.TeacherModel.build(5, 6, 8, 3, 3, rng)
    x = rng.normal(size=5)
    final_rep, logits = t.forward(x)
    block_acts = t._block_acts
    np.testing.assert_allclose(final_rep, unrolled_teacher_oracle(t, x), rtol=1e-12)
    assert len(block_acts) == 3
    np.testing.assert_allclose(
        logits, scalar_dense_oracle(t.head.weight, t.head.bias, final_rep, nn.IDENTITY), rtol=1e-12
    )


# -- StudentModel.forward ------------------------------------------------------


@pytest.mark.parametrize("depth,expected_mid", [(2, 1), (3, 2)])
def test_student_mid_index_small(depth, expected_mid):
    rng = make_rng(5)
    s = nn.StudentModel.build(4, 6, depth, rng)
    assert s.mid_index == expected_mid


@pytest.mark.parametrize("depth", range(2, 13))
def test_student_mid_index_is_ceil_half(depth):
    rng = make_rng(6)
    s = nn.StudentModel.build(4, 6, depth, rng)
    assert s.mid_index == math.ceil(depth / 2)


def test_student_forward_matches_scalar_oracle():
    rng = make_rng(7)
    s = nn.StudentModel.build(4, 6, 2, rng)
    x = rng.normal(size=4)
    final_rep, mid_rep = s.forward(x)
    exp_final, exp_mid = scalar_student_oracle(s, x)
    np.testing.assert_allclose(final_rep, exp_final, rtol=1e-12)
    np.testing.assert_allclose(mid_rep, exp_mid, rtol=1e-12)


def test_student_n2_taps_first_layer():
    rng = make_rng(8)
    s = nn.StudentModel.build(4, 6, 2, rng)
    x = rng.normal(size=4)
    _, mid_rep = s.forward(x)
    np.testing.assert_array_equal(mid_rep, s.layers[0].forward(s.input_proj.forward(x)))


@pytest.mark.parametrize("d_in, rep_dim, hidden_dim, depth, n_classes", [(8, 16, 32, 12, 2), (3, 5, 7, 1, 4)])
def test_model_sizes_count_the_parameters_build_makes(d_in, rep_dim, hidden_dim, depth, n_classes):
    rng = make_rng(10)
    teacher = nn.TeacherModel.build(d_in, rep_dim, hidden_dim, depth, n_classes, rng)
    assert nn.TeacherModel.size(d_in, rep_dim, hidden_dim, depth, n_classes) == teacher.flat.size
    student = nn.StudentModel.build(d_in, rep_dim, depth + 1, rng)
    assert nn.StudentModel.size(d_in, rep_dim, depth + 1) == student.flat.size


# -- backward ------------------------------------------------------------------


def test_backward_zero_upstream_gives_zero_grads():
    rng = make_rng(9)
    s = nn.StudentModel.build(4, 6, 2, rng)
    x = rng.normal(size=(3, 4))
    f, m = s.forward(x)
    assert np.all(s.backward(np.zeros_like(f), np.zeros_like(m)) == 0)


def test_backward_single_identity_layer_closed_form():
    # loss = 0.5 * ||y||^2 with y = Wx: dW = y x^T
    rng = make_rng(10)
    layer = nn.DenseLayer.init(3, 3, nn.IDENTITY, rng)
    x = rng.normal(size=3)
    y = layer.forward(x)
    _, dw, db = layer.backward(y)
    np.testing.assert_allclose(dw, np.outer(y, x), rtol=1e-14)
    np.testing.assert_allclose(db, y, rtol=1e-14)


def test_backward_requires_forward():
    rng = make_rng(11)
    s = nn.StudentModel.build(4, 6, 2, rng)
    with pytest.raises(RuntimeError):
        s.backward(np.zeros(6))


def quadratic_loss_fn(x, target):
    def loss_fn(model):
        f, m = model.forward(x)
        r = f - target
        return 0.5 * float(np.sum(r * r)), (r, np.zeros_like(m))
    return loss_fn


def test_backward_matches_finite_differences():
    rng = make_rng(12)
    s = nn.StudentModel.build(4, 6, 2, rng)
    x = rng.normal(size=(4, 4))
    target = rng.normal(size=(4, 6))
    report = nn.finite_diff_check(s, quadratic_loss_fn(x, target), step=1e-5, tol=1e-4)
    assert report.passed, report


# -- finite_diff_check ---------------------------------------------------------


def test_finite_diff_linear_model_is_tight():
    rng = make_rng(13)
    layer = nn.DenseLayer.init(3, 4, nn.IDENTITY, rng)

    class OneLayer:
        def __init__(self):
            self.flat, self.layout = nn._home([("layer", layer)])

        def forward(self, x):
            return layer.forward(x)

        def backward(self, d_out):
            _, dw, db = layer.backward(d_out)
            return packed_tape({"weight": dw, "bias": db})

    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))

    def loss_fn(model):
        y = model.forward(x)
        r = y - target
        return 0.5 * float(np.sum(r * r)), (r,)

    report = nn.finite_diff_check(OneLayer(), loss_fn, step=1e-5, tol=1e-4)
    # quadratic in the parameters: central differences are exact up to roundoff
    assert report.max_rel_err < 1e-8


def test_finite_diff_tanh_student_passes():
    rng = make_rng(14)
    s = nn.StudentModel.build(3, 5, 2, rng)
    x = rng.normal(size=(3, 3))
    target = rng.normal(size=(3, 5))
    report = nn.finite_diff_check(s, quadratic_loss_fn(x, target), step=1e-5, tol=1e-4)
    assert report.passed


def test_finite_diff_detects_corrupted_gradient(monkeypatch):
    rng = make_rng(15)
    s = nn.StudentModel.build(3, 5, 2, rng)
    x = rng.normal(size=(3, 3))
    target = rng.normal(size=(3, 5))
    real_backward = s.backward

    def corrupted(*args, **kwargs):
        grad = real_backward(*args, **kwargs)
        nn._views(grad, s.layout)["layers.0.weight"] *= 2.0
        return grad

    monkeypatch.setattr(s, "backward", corrupted)
    report = nn.finite_diff_check(s, quadratic_loss_fn(x, target), step=1e-5, tol=1e-4)
    assert not report.passed
    assert report.worst_param.startswith("layers.0.weight[")


def test_finite_diff_rejects_nonfinite_loss():
    rng = make_rng(16)
    s = nn.StudentModel.build(3, 5, 2, rng)

    def loss_fn(model):
        f, m = model.forward(np.ones((1, 3)))
        return float("nan"), (f, None)

    with pytest.raises(ValueError):
        nn.finite_diff_check(s, loss_fn)


# -- optimizer -----------------------------------------------------------------


class ScalarModel:
    layout = [("w", 0, 1, (1,))]

    def __init__(self, w0):
        self.w = self.flat = np.array([w0])

    def parameters(self):
        return {"w": self.w}


def test_sgd_single_step():
    m = ScalarModel(1.0)
    opt = nn.Optimizer(kind=nn.SGD, learning_rate=0.1)
    opt.step(m, packed_tape({"w": np.array([2.0])}))
    assert m.w[0] == pytest.approx(0.8, abs=0)


def test_adam_first_step_is_learning_rate():
    m = ScalarModel(0.0)
    opt = nn.Optimizer(kind=nn.ADAM, learning_rate=1e-3)
    opt.step(m, packed_tape({"w": np.array([1.0])}))
    assert m.w[0] == pytest.approx(-1e-3, rel=1e-6)


def test_sgd_quadratic_recurrence():
    # 100 steps of lr=0.1 on 0.5*w^2 from w=1: w_n = 0.9^n
    m = ScalarModel(1.0)
    opt = nn.Optimizer(kind=nn.SGD, learning_rate=0.1)
    for _ in range(100):
        opt.step(m, packed_tape({"w": m.w.copy()}))
    assert m.w[0] == pytest.approx(0.9**100, rel=1e-12)


def test_nan_gradients_leave_parameters_unchanged():
    m = ScalarModel(1.0)
    opt = nn.Optimizer(kind=nn.ADAM, learning_rate=1e-3)
    with pytest.raises(ValueError):
        opt.step(m, packed_tape({"w": np.array([float("nan")])}))
    assert m.w[0] == 1.0


@pytest.mark.parametrize("learning_rate", [float("nan"), float("inf"), 0.0, -1e-3])
def test_optimizer_refuses_a_learning_rate_that_is_not_finite_and_positive(learning_rate):
    with pytest.raises(ValueError, match="learning_rate"):
        nn.Optimizer(kind=nn.ADAM, learning_rate=learning_rate)


def test_optimizer_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown optimizer kind 'rmsprop'"):
        nn.Optimizer(kind="rmsprop")


def reference_adam(params, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam written out one parameter array at a time."""
    params = {name: arr.copy() for name, arr in params.items()}
    m = {name: np.zeros_like(arr) for name, arr in params.items()}
    v = {name: np.zeros_like(arr) for name, arr in params.items()}
    for t, grads in enumerate(grad_steps, start=1):
        for name in params:
            g = grads[name]
            m[name] = b1 * m[name] + (1 - b1) * g
            v[name] = b2 * v[name] + (1 - b2) * g * g
            m_hat = m[name] / (1 - b1**t)
            v_hat = v[name] / (1 - b2**t)
            params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def test_flat_adam_matches_per_parameter_reference_bitwise():
    rng = make_rng(21)
    t = nn.TeacherModel.build(5, 6, 8, 3, 2, rng)
    start = {name: arr.copy() for name, arr in t.parameters().items()}
    grad_steps = [
        {name: rng.normal(scale=10.0 ** rng.integers(-4, 2), size=arr.shape) for name, arr in start.items()}
        for _ in range(50)
    ]
    opt = nn.Optimizer(kind=nn.ADAM, learning_rate=3e-3)
    for grads in grad_steps:
        opt.step(t, packed_tape(grads))
    expected = reference_adam(start, grad_steps, lr=3e-3)
    for name, arr in t.parameters().items():
        np.testing.assert_array_equal(arr, expected[name], err_msg=name)


def assert_parameters_view_flat(model):
    params = model.parameters()
    assert model.flat.ndim == 1 and model.flat.dtype == np.float64
    assert sum(arr.size for arr in params.values()) == model.flat.size
    np.testing.assert_array_equal(np.concatenate([arr.reshape(-1) for arr in params.values()]), model.flat)
    x = make_rng(22).normal(size=(3, model.input_proj.in_dim))
    before = model.forward(x)[0].copy()
    for i, (name, arr) in enumerate(params.items()):
        assert np.shares_memory(arr, model.flat), name
        arr[...] = i  # writes through to the buffer
    np.testing.assert_array_equal(
        model.flat, np.concatenate([np.full(arr.size, i) for i, arr in enumerate(params.values())]))
    assert not np.array_equal(model.forward(x)[0], before)


def teacher_and_student(seed):
    rng = make_rng(seed)
    return nn.TeacherModel.build(4, 6, 8, 2, 3, rng), nn.StudentModel.build(4, 6, 3, rng)


def loaded_copies(tmp_path):
    loaded = []
    for i, model in enumerate(teacher_and_student(23)):
        nn.save_model(model, tmp_path / f"{i}.json")
        loaded.append(nn.load_model(tmp_path / f"{i}.json"))
    return loaded


@pytest.mark.parametrize("origin", ["build", "copy", "load-binary", "round-trip"])
def test_parameters_are_views_of_one_flat_buffer(tmp_path, origin):
    if origin == "build":
        models = teacher_and_student(24)
    elif origin == "copy":
        models = [m.copy() for m in teacher_and_student(24)]
    elif origin == "load-binary":
        models = loaded_copies(tmp_path)
    else:
        first = loaded_copies(tmp_path)
        models = []
        for i, model in enumerate(first):
            nn.save_model(model, tmp_path / f"again-{i}.json")
            models.append(nn.load_model(tmp_path / f"again-{i}.json"))
    for model in models:
        assert_parameters_view_flat(model)


def test_copy_owns_a_separate_buffer():
    t, s = teacher_and_student(25)
    for model in (t, s):
        twin = model.copy()
        np.testing.assert_array_equal(twin.flat, model.flat)
        twin.flat[...] = 0.0
        assert not np.shares_memory(twin.flat, model.flat)
        assert np.any(model.flat != 0.0)


# -- determinism and checkpoints -------------------------------------------------


def test_forward_backward_deterministic():
    rng1, rng2 = make_rng(17), make_rng(17)
    s1 = nn.StudentModel.build(4, 6, 3, rng1)
    s2 = nn.StudentModel.build(4, 6, 3, rng2)
    x = make_rng(18).normal(size=(4, 4))
    f1, m1 = s1.forward(x)
    f2, m2 = s2.forward(x)
    assert np.array_equal(f1, f2) and np.array_equal(m1, m2)
    assert np.array_equal(s1.backward(f1, m1), s2.backward(f2, m2))


def test_checkpoint_round_trip(tmp_path):
    rng = make_rng(19)
    t = nn.TeacherModel.build(5, 8, 12, 3, 2, rng)
    path = tmp_path / "teacher.json"
    nn.save_model(t, path)
    assert json.loads(path.read_text())["mode"] == "binary"
    loaded = nn.load_model(path)
    for name, arr in t.parameters().items():
        assert np.array_equal(arr, loaded.parameters()[name]), f"{name} not bit-exact"


def test_checkpoint_student_round_trip(tmp_path):
    rng = make_rng(20)
    s = nn.StudentModel.build(4, 6, 2, rng)
    path = tmp_path / "student.json"
    nn.save_model(s, path)
    loaded = nn.load_model(path)
    assert isinstance(loaded, nn.StudentModel)
    assert loaded.mid_index == s.mid_index
    for name, arr in s.parameters().items():
        assert np.array_equal(arr, loaded.parameters()[name])


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ValueError):
        nn.load_model(path)
