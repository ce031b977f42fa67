"""Bitwise oracles for the training kernel.

The references below are the kernel's earlier forms: each layer allocating
its gradients and copying them into the gradient (``_put``), Adam allocating a
temporary per term, and the pruning pass running every student on its own.
The current kernel must reproduce them bit for bit, so every comparison is
``assert_array_equal``, never a tolerance.
"""

import numpy as np
import pytest

from studentpar import distill as dst
from studentpar import nnkernel as nn


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


# -- references --------------------------------------------------------------------


def ref_layer_forward(layer, x):
    out = x @ layer.weight.T + layer.bias
    if layer.activation == nn.TANH:
        out = np.tanh(out)
    layer._x, layer._a = x, out
    return out


def ref_layer_backward(layer, d_out):
    d_out = np.atleast_2d(np.asarray(d_out, dtype=np.float64))
    dz = d_out * (1.0 - layer._a ** 2) if layer.activation == nn.TANH else d_out
    return dz @ layer.weight, dz.T @ layer._x, np.add.reduce(dz, axis=0)


def ref_put(grad, layer, dw, db):
    w_start, b_start, stop = layer.span
    grad[w_start:b_start] = dw.reshape(-1)
    grad[b_start:stop] = db


def ref_teacher_forward(teacher, x):
    h = ref_layer_forward(teacher.input_proj, x)
    for block in teacher.blocks:
        h = h + ref_layer_forward(block.project, ref_layer_forward(block.expand, h))
    return h, ref_layer_forward(teacher.head, h)


def ref_teacher_backward(teacher, d_final_rep, d_logits):
    grad = np.empty_like(teacher.flat)
    g = None if d_final_rep is None else np.atleast_2d(np.asarray(d_final_rep, dtype=np.float64))
    if d_logits is not None:
        d_rep_head, dw, db = ref_layer_backward(teacher.head, d_logits)
        ref_put(grad, teacher.head, dw, db)
        g = d_rep_head if g is None else g + d_rep_head
    else:
        grad[teacher.head.span[0]:teacher.head.span[2]] = 0.0
    if g is None:
        g = np.zeros_like(teacher.blocks[-1].project._a)
    for block in reversed(teacher.blocks):
        d_f, dw, db = ref_layer_backward(block.project, g)
        ref_put(grad, block.project, dw, db)
        d_h, dw, db = ref_layer_backward(block.expand, d_f)
        ref_put(grad, block.expand, dw, db)
        g = g + d_h
    _, dw, db = ref_layer_backward(teacher.input_proj, g)
    ref_put(grad, teacher.input_proj, dw, db)
    return grad


def ref_student_forward(student, x):
    h = ref_layer_forward(student.input_proj, x)
    mid = None
    for i, layer in enumerate(student.layers, start=1):
        h = ref_layer_forward(layer, h)
        if i == student.mid_index:
            mid = h
    return h, mid


def ref_student_backward(student, d_final_rep, d_mid_rep):
    grad = np.empty_like(student.flat)
    g = np.atleast_2d(np.asarray(d_final_rep, dtype=np.float64))
    for i in reversed(range(1, student.depth + 1)):
        if i == student.mid_index and d_mid_rep is not None:
            g = g + np.atleast_2d(np.asarray(d_mid_rep, dtype=np.float64))
        layer = student.layers[i - 1]
        g, dw, db = ref_layer_backward(layer, g)
        ref_put(grad, layer, dw, db)
    _, dw, db = ref_layer_backward(student.input_proj, g)
    ref_put(grad, student.input_proj, dw, db)
    return grad


class RefOptimizer:
    """The optimizer step with one temporary per term."""

    def __init__(self, kind, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.kind, self.learning_rate = kind, learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = self.v = None
        self.t = 0

    def step(self, params, g):
        if self.kind == nn.SGD:
            params -= self.learning_rate * g
            return
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.t += 1
        b1, b2, m, v = self.beta1, self.beta2, self.m, self.v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**self.t)
        v_hat = v / (1 - b2**self.t)
        params -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def looped_prefix_gradients(state, xb, teacher_logits, temperature):
    """The pruning pass with each student forward and backward on its own."""
    m, n = len(state), len(xb)
    clf = state.classifier
    alphas = np.asarray(state.multipliers)[:, None, None]
    finals = np.stack([ref_student_forward(student, xb)[0] for student in state.students])
    reps = np.cumsum(alphas * finals, axis=0).reshape(m * n, -1)
    logits = ref_layer_forward(clf, reps)
    t_logits = np.tile(np.asarray(teacher_logits, dtype=np.float64), (m, 1))
    total = m * dst.soft_cross_entropy(logits, t_logits, temperature)
    d_logits = (dst._softmax(logits / temperature) - dst._softmax(t_logits / temperature)) / (temperature * n)
    d_reps, dw, db = ref_layer_backward(clf, d_logits)
    suffix = np.cumsum(d_reps.reshape(m, n, -1)[::-1], axis=0)[::-1]
    grad = np.empty(clf.weight.size + clf.bias.size + sum(student.flat.size for student in state.students))
    start = clf.weight.size
    grad[:start] = dw.reshape(-1)
    grad[start:start + db.size] = db
    start += db.size
    for alpha, student, d_rep in zip(state.multipliers, state.students, suffix):
        size = student.flat.size
        grad[start:start + size] = ref_student_backward(student, alpha * d_rep, None)
        start += size
    return grad, total


def looped_rep(state, x, k):
    out = None
    for alpha, student in zip(state.multipliers[:k], state.students[:k]):
        final, _ = ref_student_forward(student, x)
        out = alpha * final if out is None else out + alpha * final
    return out


# -- the stacked student bank against the per-student loop ----------------------------


def bank_state(m, depth, seed, d_in=8, rep_dim=16, n_classes=2):
    rng = make_rng(seed)
    students = [nn.StudentModel.build(d_in, rep_dim, depth, rng) for _ in range(m)]
    state = dst.EnsembleState(students, [1.0, *rng.uniform(-1.5, 1.5, size=m - 1)])
    state.classifier = nn.DenseLayer.init(n_classes, rep_dim, nn.IDENTITY, rng)
    return state, rng


@pytest.mark.parametrize("m", [1, 2, 8])
@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 7, 32, 205, 512])
def test_stacked_bank_equals_per_student_loop(n, depth, m):
    state, rng = bank_state(m, depth, seed=1000 * depth + 10 * m + n)
    x = rng.normal(size=(n, 8))
    t_logits = 3.0 * rng.normal(size=(n, 2))
    finals = dst._bank_forward(state.layers, x)
    for student, final in zip(state.students, finals):
        np.testing.assert_array_equal(final, ref_student_forward(student, x)[0])
        np.testing.assert_array_equal(final, student.forward(x)[0])
    labels = rng.integers(0, 2, size=n)
    expected_acc = []
    for k in range(1, m + 1):
        rep = looped_rep(state, x, k)
        np.testing.assert_array_equal(state.rep(x, k), rep)
        logits = ref_layer_forward(state.classifier, rep)
        expected_acc.append(float(np.mean(np.argmax(logits, axis=1) == labels)))
    assert dst.prefix_accuracies(state, dst.Dataset(x, labels)) == expected_acc
    grad, loss = dst.accumulate_prefix_gradients(state, x, t_logits, temperature=2.0)
    ref_grad, ref_loss = looped_prefix_gradients(state, x, t_logits, temperature=2.0)
    np.testing.assert_array_equal(grad, ref_grad)
    assert loss == ref_loss


def test_stacked_bank_honours_identity_layers():
    rng = make_rng(5)
    students = []
    for _ in range(3):
        proj = nn.DenseLayer.init(6, 4, nn.IDENTITY, rng)
        layers = [nn.DenseLayer.init(6, 6, act, rng) for act in (nn.TANH, nn.IDENTITY, nn.TANH)]
        students.append(nn.StudentModel(proj, layers))
    state = dst.EnsembleState(students, [1.0, 0.5, -0.25])
    state.classifier = nn.DenseLayer.init(3, 6, nn.IDENTITY, rng)
    x, t_logits = rng.normal(size=(9, 4)), rng.normal(size=(9, 3))
    np.testing.assert_array_equal(state.rep(x), looped_rep(state, x, 3))
    grad, loss = dst.accumulate_prefix_gradients(state, x, t_logits, temperature=1.0)
    ref_grad, ref_loss = looped_prefix_gradients(state, x, t_logits, temperature=1.0)
    np.testing.assert_array_equal(grad, ref_grad)
    assert loss == ref_loss


def assert_rows_of_the_bank_compute_like_the_loop(state, rng):
    """Every student's flat buffer is a row of the state's bank, the stacked
    layers view that bank, and the bank computes like the per-student loop."""
    bank = state.bank
    assert bank.shape == (len(state), state.students[0].flat.size)
    for student, row in zip(state.students, bank):
        assert student.flat.ctypes.data == row.ctypes.data and student.flat.shape == row.shape
    for weight, bias, layer in state.layers:
        assert np.shares_memory(weight, bank) and np.shares_memory(bias, bank)
        assert weight.shape == (len(state), *layer.weight.shape) and bias.shape == (len(state), 1, layer.out_dim)
    x, t_logits = rng.normal(size=(9, 8)), 3.0 * rng.normal(size=(9, 2))
    for k in range(1, len(state) + 1):
        np.testing.assert_array_equal(state.rep(x, k), looped_rep(state, x, k))
    grad, loss = dst.accumulate_prefix_gradients(state, x, t_logits, temperature=2.0)
    ref_grad, ref_loss = looped_prefix_gradients(state, x, t_logits, temperature=2.0)
    np.testing.assert_array_equal(grad, ref_grad)
    assert loss == ref_loss


def test_the_state_owns_one_bank_of_its_students():
    state, rng = bank_state(3, 2, seed=6)
    assert_rows_of_the_bank_compute_like_the_loop(state, rng)

    added = nn.StudentModel.build(8, 16, 2, rng)
    values = added.flat.copy()
    state.add(added, 0.75)
    assert len(state) == 4 and added is state.students[-1]
    np.testing.assert_array_equal(added.flat, values)  # copied into its row
    assert_rows_of_the_bank_compute_like_the_loop(state, rng)

    dropped, values = state.students[-1], state.students[-1].flat.copy()
    state.drop_last()
    assert len(state) == 3 and not np.shares_memory(dropped.flat, state.bank)
    state.bank *= 0.5  # the state's later writes do not reach the dropped student
    np.testing.assert_array_equal(dropped.flat, values)
    assert_rows_of_the_bank_compute_like_the_loop(state, rng)

    loaded = dst.ensemble_from_dict(dst.ensemble_to_dict(state))
    np.testing.assert_array_equal(loaded.bank, state.bank)
    assert not np.shares_memory(loaded.bank, state.bank)
    assert_rows_of_the_bank_compute_like_the_loop(loaded, rng)

    values = state.bank.copy()
    params = dst._PruningParams(state)
    assert np.shares_memory(state.bank, params.flat)
    np.testing.assert_array_equal(state.bank, values)
    assert_rows_of_the_bank_compute_like_the_loop(state, rng)


def test_rep_of_a_single_sample_keeps_its_shape():
    state, rng = bank_state(2, 2, seed=7)
    x = rng.normal(size=8)
    np.testing.assert_array_equal(state.rep(x), looped_rep(state, x[None, :], 2)[0])
    with pytest.raises(ValueError, match="width"):
        state.rep(rng.normal(size=(3, 5)))


def test_ensemble_rejects_students_of_differing_shapes():
    rng = make_rng(8)
    a = nn.StudentModel.build(4, 6, 2, rng)
    deeper = nn.StudentModel.build(4, 6, 3, rng)
    wider_in = nn.StudentModel.build(5, 6, 2, rng)
    linear = nn.StudentModel(nn.DenseLayer.init(6, 4, nn.IDENTITY, rng),
                             [nn.DenseLayer.init(6, 6, nn.TANH, rng) for _ in range(2)])
    for other in (deeper, wider_in, linear):
        with pytest.raises(ValueError, match="students differ in shape: student 1"):
            dst.EnsembleState([a, other], [1.0, 0.5])
        state = dst.EnsembleState([a], [1.0])
        with pytest.raises(ValueError, match="students differ in shape"):
            state.add(other, 0.5)
        assert len(state) == 1
        d = dst.ensemble_to_dict(dst.EnsembleState([a], [1.0]))
        d["students"].append(nn.model_to_dict(other))
        d["multipliers"].append(0.5)
        with pytest.raises(ValueError, match="students differ in shape"):
            dst.ensemble_from_dict(d)


# -- layers that write into the gradient against allocate-and-_put ------------------


@pytest.mark.parametrize("kind", [nn.SGD, nn.ADAM])
def test_models_and_optimizer_equal_the_allocating_reference(kind):
    rng = make_rng(20 if kind == nn.SGD else 21)
    teacher = nn.TeacherModel.build(5, 8, 12, 3, 3, rng)
    student = nn.StudentModel.build(5, 8, 3, rng)
    twins = {id(teacher): teacher.copy(), id(student): student.copy()}
    opts = {id(model): (nn.Optimizer(kind=kind, learning_rate=3e-2), RefOptimizer(kind, 3e-2))
            for model in (teacher, student)}
    for step in range(25):
        n = int(rng.integers(1, 40))
        x = rng.normal(size=(n, 5))
        # teacher: logits only, final rep only, or both
        ref = twins[id(teacher)]
        rep, logits = teacher.forward(x)
        ref_rep, ref_logits = ref_teacher_forward(ref, x)
        np.testing.assert_array_equal(rep, ref_rep)
        np.testing.assert_array_equal(logits, ref_logits)
        d_final = None if step % 3 == 0 else rng.normal(size=rep.shape)
        d_logits = None if step % 3 == 1 else rng.normal(size=logits.shape)
        grad = teacher.backward(d_final, d_logits)
        ref_grad = ref_teacher_backward(ref, d_final, d_logits)
        np.testing.assert_array_equal(grad, ref_grad)
        opt, ref_opt = opts[id(teacher)]
        opt.step(teacher, grad)
        ref_opt.step(ref.flat, ref_grad)
        np.testing.assert_array_equal(teacher.flat, ref.flat)
        # student: final rep, with or without the mid-layer term
        ref = twins[id(student)]
        final, mid = student.forward(x)
        ref_final, ref_mid = ref_student_forward(ref, x)
        np.testing.assert_array_equal(final, ref_final)
        np.testing.assert_array_equal(mid, ref_mid)
        d_final = rng.normal(size=final.shape)
        d_mid = None if step % 2 else rng.normal(size=mid.shape)
        grad = student.backward(d_final, d_mid)
        ref_grad = ref_student_backward(ref, d_final, d_mid)
        np.testing.assert_array_equal(grad, ref_grad)
        opt, ref_opt = opts[id(student)]
        opt.step(student, grad)
        ref_opt.step(ref.flat, ref_grad)
        np.testing.assert_array_equal(student.flat, ref.flat)
    if kind == nn.ADAM:
        for model in (teacher, student):
            opt, ref_opt = opts[id(model)]
            np.testing.assert_array_equal(opt._m, ref_opt.m)
            np.testing.assert_array_equal(opt._v, ref_opt.v)


def test_layer_backward_writes_into_the_given_buffers():
    rng = make_rng(22)
    layer = nn.DenseLayer.init(6, 4, nn.TANH, rng)
    x, d_out = rng.normal(size=(9, 4)), rng.normal(size=(9, 6))
    layer.forward(x)
    ref_dx, ref_dw, ref_db = ref_layer_backward(layer, d_out)
    tape = np.full(3 + 24 + 6, np.nan)
    dw_view, db_view = tape[3:27].reshape(6, 4), tape[27:]
    dx, dw, db = layer.backward(d_out, dw_view, db_view)
    assert dw is dw_view and db is db_view
    np.testing.assert_array_equal(dx, ref_dx)
    np.testing.assert_array_equal(tape[3:27], ref_dw.reshape(-1))
    np.testing.assert_array_equal(tape[27:], ref_db)
    assert np.isnan(tape[:3]).all()


def test_teacher_backward_leaves_the_callers_gradients_unchanged():
    rng = make_rng(23)
    teacher = nn.TeacherModel.build(5, 8, 12, 3, 3, rng)
    for x in (rng.normal(size=(6, 5)), rng.normal(size=5)):
        rep, logits = teacher.forward(x)
        d_final, d_logits = rng.normal(size=rep.shape), rng.normal(size=logits.shape)
        saved = d_final.copy(), d_logits.copy()
        for args in ((d_final, None), (d_final, d_logits), (None, d_logits)):
            teacher.backward(*args)
            np.testing.assert_array_equal(d_final, saved[0])
            np.testing.assert_array_equal(d_logits, saved[1])


def test_student_backward_leaves_the_callers_gradients_unchanged():
    rng = make_rng(24)
    student = nn.StudentModel.build(5, 8, 3, rng)
    final, mid = student.forward(rng.normal(size=(6, 5)))
    d_final, d_mid = rng.normal(size=final.shape), rng.normal(size=mid.shape)
    saved = d_final.copy(), d_mid.copy()
    student.backward(d_final, d_mid)
    np.testing.assert_array_equal(d_final, saved[0])
    np.testing.assert_array_equal(d_mid, saved[1])


# -- the stacked kernel between batch sizes ---------------------------------------------


def flip_activations(model_layers, acts):
    for layer, act in zip(model_layers, acts):
        layer.activation = act


def twin_steps(model, ref, ref_forward, ref_backward, make_grads, n, steps, rng):
    """Forward at n, then at other sizes, then at n again; backward and one Adam step
    on the model and its reference twin, compared bit for bit throughout."""
    opt, ref_opt = nn.Optimizer(kind=nn.ADAM, learning_rate=1e-2), RefOptimizer(nn.ADAM, 1e-2)
    d_in = model.input_proj.in_dim
    for _ in range(steps):
        for size in (n, 5, 64, n):
            x = rng.normal(size=(size, d_in))
            for out, ref_out in zip(model.forward(x), ref_forward(ref, x)):
                np.testing.assert_array_equal(out, ref_out)
        grads = make_grads(n)
        grad = model.backward(*grads)
        ref_grad = ref_backward(ref, *grads)
        np.testing.assert_array_equal(grad, ref_grad)
        opt.step(model, grad)
        ref_opt.step(ref.flat, ref_grad)
        np.testing.assert_array_equal(model.flat, ref.flat)


@pytest.mark.parametrize("n", [1, 31, 32])
@pytest.mark.parametrize("shape,acts", [
    ((5, 6, 8, 1, 3), None),
    ((8, 16, 32, 12, 2), None),  # the stock teacher
    ((5, 6, 8, 3, 3), (nn.IDENTITY, nn.TANH)),  # linear expands, tanh projects
])
def test_teacher_equals_the_reference_between_batch_sizes(shape, acts, n):
    d_in, rep, hidden, depth, n_classes = shape
    rng = make_rng(30 + depth + n)
    teacher = nn.TeacherModel.build(*shape, rng)
    if acts:
        for block in teacher.blocks:
            flip_activations((block.expand, block.project), acts)
    ref = teacher.copy()
    twin_steps(teacher, ref, ref_teacher_forward, ref_teacher_backward,
               lambda rows: (rng.normal(size=(rows, rep)), rng.normal(size=(rows, n_classes))), n, 3, rng)


@pytest.mark.parametrize("n", [1, 31, 32])
@pytest.mark.parametrize("depth,acts", [(2, None), (4, None), (4, (nn.TANH, nn.IDENTITY, nn.TANH, nn.IDENTITY))])
def test_student_equals_the_reference_between_batch_sizes(depth, acts, n):
    rng = make_rng(40 + depth + n)
    student = nn.StudentModel.build(8, 16, depth, rng)
    if acts:
        flip_activations(student.layers, acts)
    ref = student.copy()
    twin_steps(student, ref, ref_student_forward, ref_student_backward,
               lambda rows: (rng.normal(size=(rows, 16)), rng.normal(size=(rows, 16))), n, 3, rng)


def test_student_moved_into_the_pruning_buffer_trains_like_its_unmoved_twin():
    state, rng = bank_state(3, 2, seed=50)
    twin = state.students[1].copy()
    params = dst._PruningParams(state)
    student = state.students[1]
    assert np.shares_memory(student.flat, params.flat)
    opts = [nn.Optimizer(kind=nn.ADAM, learning_rate=1e-2) for _ in range(2)]
    for _ in range(4):
        x = rng.normal(size=(9, 8))
        d_final, d_mid = rng.normal(size=(9, 16)), rng.normal(size=(9, 16))
        for model, opt in zip((student, twin), opts):
            model.forward(x)
            opt.step(model, model.backward(d_final, d_mid))
        np.testing.assert_array_equal(student.flat, twin.flat)
        for out, twin_out in zip(student.forward(x), twin.forward(x)):
            np.testing.assert_array_equal(out, twin_out)


def test_pruning_bank_views_the_parameter_buffer():
    state, rng = bank_state(4, 3, seed=51)
    params = dst._PruningParams(state)
    opt = nn.Optimizer(kind=nn.ADAM, learning_rate=1e-2)
    for weight, bias, _ in state.layers:
        assert np.shares_memory(weight, params.flat) and np.shares_memory(bias, params.flat)
    for _ in range(3):  # the views follow the optimizer's in-place updates
        x, t_logits = rng.normal(size=(11, 8)), rng.normal(size=(11, 2))
        grad, loss = dst.accumulate_prefix_gradients(state, x, t_logits, 2.0)
        copied, copied_loss = dst.accumulate_prefix_gradients(
            dst.ensemble_from_dict(dst.ensemble_to_dict(state)), x, t_logits, 2.0)
        np.testing.assert_array_equal(grad, copied)
        assert loss == copied_loss
        opt.step(params, grad)


@pytest.mark.parametrize("kind", ["teacher", "student"])
def test_outputs_and_tapes_outlive_later_passes(kind):
    rng = make_rng(52)
    model = (nn.TeacherModel.build(5, 6, 8, 3, 2, rng) if kind == "teacher"
             else nn.StudentModel.build(5, 6, 3, rng))

    def run(n):
        outs = model.forward(rng.normal(size=(n, 5)))
        grad = model.backward(*(rng.normal(size=out.shape) for out in outs))
        return outs, grad

    outs, grad = run(7)
    saved = [out.copy() for out in outs], grad.copy()
    for n in (7, 7, 12, 7):  # the same batch size and another
        run(n)
    for out, before in zip(outs, saved[0]):
        np.testing.assert_array_equal(out, before)
    np.testing.assert_array_equal(grad, saved[1])
