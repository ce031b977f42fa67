"""Boosting-ensemble distillation of a deep teacher into shallow students.

Students are trained sequentially: each new one fits the residual between
the teacher's final representation and the running ensemble, while its
mid-layer imitates the ensemble of all previous students so its top layers
act as a refinement stage. Multipliers come from a closed-form line search.
A second pass (adaptive pruning) trains a shared classifier over every
prefix of the group so trailing students can be dropped at serve time with
known accuracy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import nnkernel as nn
from .seeding import fork_seed, rng_for


@dataclass
class Dataset:
    """Inputs (n, d_in) and integer class labels (n,)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels must have equal length")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, idx) -> "Dataset":
        return Dataset(self.inputs[idx], self.labels[idx])


@dataclass
class DataSplits:
    train: Dataset
    validation: Dataset
    test: Dataset
    n_classes: int  # the labels lie in 0..n_classes - 1


def _named_values(source, names) -> dict:
    """``source`` if it is a dict, else the named attributes of the object ``source``.
    Not ``vars(source)``: on CPython 3.11 that slows every later attribute read."""
    return source if isinstance(source, dict) else {name: getattr(source, name) for name in names}


def check_counts(source, lows: dict[str, int]) -> None:
    """Raise ValueError unless each value named in ``lows`` that ``source`` holds
    is an integer (not a bool) at or above its lower bound."""
    values = _named_values(source, lows)
    for name, low in lows.items():
        value = values.get(name, low)
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _is_finite_number(value) -> bool:
    """An int or float (not a bool) that a float holds finitely."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def check_positive(source, names) -> None:
    """Raise ValueError unless each named value that ``source`` holds is a finite number > 0."""
    values = _named_values(source, names)
    for name in names:
        value = values.get(name, 1.0)
        if not (_is_finite_number(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def check_finite(source, lows: dict[str, float]) -> None:
    """Raise ValueError unless each value named in ``lows`` that ``source`` holds
    is a finite number at or above its lower bound."""
    values = _named_values(source, lows)
    for name, low in lows.items():
        value = values.get(name)
        if name in values and not (_is_finite_number(value) and value >= low):
            bound = f" >= {low}" if low > -math.inf else ""
            raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


# Bounds on the size of a training run, checked from its config before anything is
# allocated or trained. The stock distill config holds a task of 10,240 floats, a teacher
# of 13,042 parameters and 8 students of 688, and its students' stage may take up to
# 19,200 optimizer steps (8 students, 150 epochs, 16 batches); each limit is over 500 times that
MAX_TASK_FLOATS = 10_000_000      # (n_train + n_val + n_test) * d_in
MAX_MODEL_FLOATS = 10_000_000     # the teacher's parameters, or all the students' together
MAX_OPTIMIZER_STEPS = 10_000_000  # epochs times batches per epoch, in one training stage
TEACHER_EPOCHS, TEACHER_BATCH_SIZE, STUDENT_DEPTH = 300, 32, 2  # defaults of the training functions


def check_at_most(key: str, count: int, what: str, limit: int) -> None:
    """Raise ValueError naming ``key`` if ``count`` (of ``what``) is above ``limit``."""
    if count > limit:
        raise ValueError(f"{key}: {count:,} {what}, above the limit of {limit:,}")


def check_steps(key: str, epochs: int, n: int, batch_size: int) -> None:
    """Bound the optimizer steps of ``epochs`` passes over ``n`` samples in batches of ``batch_size``."""
    batches = -(-n // batch_size)
    check_at_most(key, epochs * batches, f"optimizer steps ({epochs:,} epochs of {batches:,} batches)",
                  MAX_OPTIMIZER_STEPS)


def make_gaussian_task(
    n_classes: int = 2,
    d_in: int = 8,
    n_train: int = 256,
    n_val: int = 128,
    n_test: int = 256,
    class_sep: float = 2.0,
    seed: int = 0,
) -> DataSplits:
    """Seeded Gaussian-mixture classification task.

    Class means sit on a sphere of radius class_sep/2 in d_in dimensions
    with unit-variance noise, so overlap (and therefore the accuracy
    ceiling) is controlled by class_sep.
    """
    check_counts(locals(), {"n_classes": 2, "d_in": 1, "n_train": 1, "n_val": 1, "n_test": 1})
    check_at_most("n_train, n_val, n_test and d_in", (n_train + n_val + n_test) * d_in, "input floats",
                  MAX_TASK_FLOATS)
    check_finite(locals(), {"class_sep": -math.inf})
    if n_classes > 8:
        raise ValueError("n_classes must be in [2, 8]")
    rng = rng_for(seed, "gaussian-task")
    means = rng.normal(size=(n_classes, d_in))
    means *= (class_sep / 2.0) / np.linalg.norm(means, axis=1, keepdims=True)

    def draw(n: int) -> Dataset:
        labels = rng.integers(0, n_classes, size=n)
        inputs = means[labels] + rng.normal(size=(n, d_in))
        return Dataset(inputs, labels)

    return DataSplits(draw(n_train), draw(n_val), draw(n_test), n_classes)


@dataclass
class DistillConfig:
    """Knobs for sequential training and pruning."""

    lambda_stack: float = 1.0
    subsample_top_pct: float = 20.0
    subsample_rand_pct: float = 20.0
    max_students: int = 8
    epochs_per_student: int = 150
    soft_ce_temperature: float = 1.0
    overfit_patience: int = 1
    seed: int = 0
    batch_size: int = 32
    learning_rate: float = 1e-3
    pruning_epochs: int = 60
    min_improvement: float = 1e-9

    def __post_init__(self):
        check_finite(self, {"lambda_stack": 0, "subsample_top_pct": 0, "subsample_rand_pct": 0,
                            "min_improvement": -math.inf})
        check_positive(self, ("soft_ce_temperature", "learning_rate"))
        a, b = self.subsample_top_pct, self.subsample_rand_pct
        if not (a <= 100 and b <= 100 and 0 < a + b <= 100):
            raise ValueError("subsample percentages must satisfy 0 <= a, b and 0 < a + b <= 100")
        check_counts(self, {"max_students": 1, "epochs_per_student": 1, "batch_size": 1,
                                  "pruning_epochs": 0, "overfit_patience": 1})


@dataclass
class ConvergenceRecord:
    """Per-round diagnostics of the boosting loop."""

    round: int
    residual_mse: float
    inner_product: float
    step_size: float
    halted: bool


@dataclass
class AccuracyTable:
    """Rows of (k, validation accuracy, test accuracy) for prefixes 1..M."""

    rows: list[tuple[int, float, float]] = field(default_factory=list)

    def __post_init__(self):
        for i, row in enumerate(self.rows, start=1):
            _check_table_row(i, *row)

    def val_accuracy(self, k: int) -> float:
        return self.rows[k - 1][1]

    def __len__(self) -> int:
        return len(self.rows)


def _check_table_row(i: int, k: int, va: float, ta: float) -> None:
    """Raise ValueError unless (k, va, ta) may be row i of an accuracy table."""
    if k != i:
        raise ValueError("k must run 1..M with no gaps")
    if not (0 <= va <= 1 and 0 <= ta <= 1):
        raise ValueError("accuracies must be in [0, 1]")


class EnsembleState:
    """Ordered students, their multipliers, and the shared classifier.

    The prefix ensemble of the first k students is sum_{m<k} alpha_m * S_m.
    alpha_0 is pinned to 1; later multipliers are whatever the line search
    produced when each student was added (no clamping).

    The state is a model whose parameters sit in one buffer, ``flat``: the
    classifier's, when there is one, then the (M, P) ``bank``, whose row m is
    student m's ``flat``. ``layout`` names them, ``classifier.*`` and then each
    student's own layout as ``students.<m>.*``, so an optimizer steps the state
    like any model; ``layers`` is ``_bank_layers`` of the bank. Building a state,
    ``add``, ``drop_last`` and setting ``classifier`` copy the parameters into a
    new ``flat``; a dropped student keeps its values in the buffer it leaves.
    """

    def __init__(self, students=None, multipliers=None, classifier: nn.DenseLayer | None = None):
        self.students: list[nn.StudentModel] = list(students or [])
        self.multipliers: list[float] = list(multipliers or [])
        if len(self.students) != len(self.multipliers):
            raise ValueError("students and multipliers must have equal length")
        if self.multipliers and self.multipliers[0] != 1.0:
            raise ValueError("the first multiplier must be exactly 1")
        for j, student in enumerate(self.students[1:], start=1):
            _check_architecture(self.students[0], student, j)
        self.classifier = classifier

    def __len__(self) -> int:
        return len(self.students)

    @property
    def classifier(self) -> nn.DenseLayer | None:
        return self._classifier

    @classifier.setter
    def classifier(self, layer: nn.DenseLayer | None) -> None:
        self._classifier = layer
        self._rehome()

    def add(self, student: nn.StudentModel, alpha: float) -> None:
        if not self.students and alpha != 1.0:
            raise ValueError("the first multiplier must be exactly 1")
        if self.students:
            _check_architecture(self.students[0], student, len(self.students))
        self.students.append(student)
        self.multipliers.append(float(alpha))
        self._rehome()

    def drop_last(self) -> None:
        self.students.pop()
        self.multipliers.pop()
        self._rehome()

    def _rehome(self) -> None:
        """Copy the classifier's and the students' parameters into a new ``flat`` and view them there."""
        m, p = len(self.students), self.students[0].flat.size if self.students else 0
        head = [] if self._classifier is None else [("classifier", self._classifier)]
        start = sum(layer.weight.size + layer.bias.size for _, layer in head)
        self.flat = np.empty(start + m * p)
        _, self.layout = nn._home(head, self.flat[:start])
        self.bank = self.flat[start:].reshape(m, p)
        for j, (student, row) in enumerate(zip(self.students, self.bank)):
            student.move_to(row)
            self.layout += [(f"students.{j}.{name}", start + j * p + lo, start + j * p + hi, shape)
                            for name, lo, hi, shape in student.layout]
        self.layers = _bank_layers(self.students[0], self.bank) if m else []

    def rep(self, x: np.ndarray, k: int | None = None) -> np.ndarray:
        """Prefix-ensemble representation of the first k students."""
        k = len(self.students) if k is None else k
        if not 1 <= k <= len(self.students):
            raise ValueError(f"k={k} out of range 1..{len(self.students)}")
        x = np.asarray(x, dtype=np.float64)
        for rep in _prefix_sums(self, x[None, :] if x.ndim == 1 else x, k):
            pass
        return rep[0] if x.ndim == 1 else rep


# -- the stacked student bank --------------------------------------------------
#
# The students of an ensemble share one architecture, so their flat buffers
# stack into one (M, P) bank and each layer becomes an (M, out, in) weight and
# an (M, 1, out) bias. One np.matmul per layer then runs every student; it
# makes the same BLAS call per student as DenseLayer, so every output is
# bitwise the per-student one.


def _architecture(student: nn.StudentModel) -> list[tuple]:
    return [(layer.weight.shape, layer.activation) for layer in (student.input_proj, *student.layers)]


def _check_architecture(first: nn.StudentModel, student: nn.StudentModel, j: int) -> None:
    if _architecture(student) != _architecture(first):
        raise ValueError(f"students differ in shape: student {j} has layers {_architecture(student)}, "
                         f"student 0 has {_architecture(first)}")


def _bank_layers(student: nn.StudentModel, bank: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, nn.DenseLayer]]:
    """Per layer, input projection first: (weights (M, out, in), biases (M, 1, out),
    ``student``'s layer), views into ``bank``, an (M, P) buffer whose rows are laid
    out like ``student.flat``."""
    unit = [student.input_proj, *student.layers]
    views = nn._stack_views(unit, len(bank))(bank.reshape(-1))
    return [(weight, bias[:, None], layer) for weight, bias, layer in zip(views[::2], views[1::2], unit)]


def _bank_forward(layers, x: np.ndarray, acts: list | None = None) -> np.ndarray:
    """Every student's forward pass on x (n, in): the (M, n, width) final
    representations. ``acts``, when given, receives each layer's output for
    ``_bank_backward``; otherwise only the current layer's is kept alive."""
    if x.ndim != 2 or x.shape[1] != layers[0][2].in_dim:
        raise ValueError(f"input width {x.shape} does not match layer in_dim {layers[0][2].in_dim}")
    h = x
    for weight, bias, layer in layers:
        h = np.matmul(h, weight.transpose(0, 2, 1))
        h += bias
        if layer.activation == nn.TANH:
            np.tanh(h, out=h)
        if acts is not None:
            acts.append(h)
    return h


def _bank_backward(layers, x: np.ndarray, acts: list[np.ndarray], d_final: np.ndarray, grads: np.ndarray) -> None:
    """Back-propagate d_final (M, n, width) through every student of a ``_bank_forward``
    at once; student j's gradient lands in grads[j], laid out like its flat buffer."""
    g = d_final
    for i in reversed(range(len(layers))):
        weight, _, layer = layers[i]
        if layer.activation == nn.TANH:
            dz = acts[i] * acts[i]  # g * (1 - a^2), in place
            np.subtract(1.0, dz, out=dz)
            dz *= g
        else:
            dz = g
        w_start, b_start, stop = layer.span
        np.matmul(dz.transpose(0, 2, 1), acts[i - 1] if i else x, out=grads[:, w_start:b_start].reshape(weight.shape))
        np.add.reduce(dz, axis=1, out=grads[:, b_start:stop])
        if i:
            g = np.matmul(dz, weight)


# students x samples per stacked pass of _prefix_sums: a pass keeps two layers'
# activations alive, so this holds a sweep's memory near the per-student loop's
_SWEEP_ROWS = 1024


def _prefix_sums(state: "EnsembleState", x: np.ndarray, k: int):
    """Yield the representation of the first 1, 2, ..., k students on x, each
    summed as rep + alpha * final in ensemble order. The students run in
    stacked slices of the state's bank of at most _SWEEP_ROWS // n."""
    step, rep = max(1, _SWEEP_ROWS // max(1, len(x))), None
    for start in range(0, k, step):
        rows = slice(start, min(k, start + step))
        finals = _bank_forward([(weight[rows], bias[rows], layer) for weight, bias, layer in state.layers], x)
        for alpha, final in zip(state.multipliers[start:], finals):
            rep = alpha * final if rep is None else rep + alpha * final
            yield rep


def _step_numerator_denominator(t_reps, prev_reps, s_reps) -> tuple[float, float]:
    t = np.asarray(t_reps, dtype=np.float64)
    p = np.asarray(prev_reps, dtype=np.float64)
    s = np.asarray(s_reps, dtype=np.float64)
    if not (t.shape == p.shape == s.shape) or t.size == 0:
        raise ValueError("representation lists must be nonempty and congruent")
    num = float(np.sum((t - p) * s))
    den = float(np.sum(s * s))
    if den == 0.0:
        raise ValueError("degenerate student: all representations are zero")
    return num, den


def anyboost_step(t_reps, prev_reps, s_reps, lipschitz: float) -> float:
    """Functional-gradient step size: <t - prev, s> / (L * |s|^2), summed over samples.

    With L == 1 this is exactly the line-search minimizer, since the loss
    gradient with respect to the ensemble output is -(t - prev).
    """
    if lipschitz < 1:
        raise ValueError("lipschitz must be >= 1")
    num, den = _step_numerator_denominator(t_reps, prev_reps, s_reps)
    return num / (lipschitz * den)


def line_search_alpha(t_reps, prev_reps, s_reps) -> float:
    """Closed-form minimizer of the summed quadratic residual loss."""
    return halting_probe(t_reps, prev_reps, s_reps)[0]


def halting_probe(t_reps, prev_reps, s_reps) -> tuple[float, float, bool]:
    """Return (alpha, inner_product, halted) for one boosting round.

    halted fires when the new student's correlation with the residual is
    nonpositive, i.e. it is not a descent direction.
    """
    num, den = _step_numerator_denominator(t_reps, prev_reps, s_reps)
    return num / den, num, num <= 0.0


def subsample_sizes(n: int, a: float, b: float) -> tuple[int, int]:
    """ceil(a% n) and ceil(b% n), the sizes of residual_subsample's two blocks
    from n samples; ValueError if together they exceed n."""
    n_top = int(np.ceil(a / 100.0 * n))
    n_rand = int(np.ceil(b / 100.0 * n))
    if n_top + n_rand > n:
        raise ValueError(f"subsample_top_pct {a} and subsample_rand_pct {b} take "
                         f"{n_top} + {n_rand} of {n} training samples")
    return n_top, n_rand


def residual_subsample(data: Dataset, residual_norms, a: float, b: float, seed: int) -> Dataset:
    """Top ceil(a% n) samples by residual norm plus ceil(b% n) random others.

    Ordering: the top block sorted by descending residual (ties broken by
    lower index), then the random picks in draw order. Sampling is uniform
    without replacement from the remainder, from a PCG64 generator seeded
    with ``seed``.
    """
    n = len(data)
    norms = np.asarray(residual_norms, dtype=np.float64)
    if norms.shape != (n,):
        raise ValueError("residual_norms must align with the dataset")
    n_top, n_rand = subsample_sizes(n, a, b)
    if n_top + n_rand == 0:
        raise ValueError("subsample is empty: a and b are both zero")
    order = np.lexsort((np.arange(n), -norms))  # descending norm, ties by lower index
    top = order[:n_top]
    remainder = np.sort(order[n_top:])
    rng = np.random.Generator(np.random.PCG64(seed))
    picked = rng.choice(remainder, size=n_rand, replace=False) if n_rand else np.empty(0, dtype=np.int64)
    idx = np.concatenate([top, picked]).astype(np.int64)
    return data.subset(idx)


# -- sequential student training ---------------------------------------------


def _half_mse(t: np.ndarray, prev: np.ndarray) -> float:
    r = t - prev
    return 0.5 * float(np.mean(np.sum(r * r, axis=1)))


def residual_mse(teacher, state: EnsembleState, data: Dataset, k: int | None = None) -> float:
    """Mean over samples of the half squared residual norm."""
    t, _ = teacher.forward(data.inputs)
    return _half_mse(t, state.rep(data.inputs, k) if len(state) else np.zeros_like(t))


def train_one_student(
    teacher,
    state: EnsembleState,
    data: Dataset,
    cfg: DistillConfig,
    round_index: int = 0,
    seed_student: nn.StudentModel | None = None,
    student_depth: int = STUDENT_DEPTH,
) -> tuple[nn.StudentModel, list[float]]:
    """Train the next student against the current ensemble's residual.

    The first student starts from ``seed_student`` (copied) or a fresh
    seeded init and trains on the full data with the boost term only, since
    there is no previous ensemble to imitate. Later students copy the last
    trained student and train on the residual-weighted subsample. Returns
    the student and its per-epoch mean combined loss. The teacher and all
    previous students are never modified.
    """
    rng = rng_for(cfg.seed, f"student-{round_index}")
    rep_dim = teacher.rep_dim
    first = len(state) == 0
    if first:
        student = seed_student.copy() if seed_student is not None else nn.StudentModel.build(
            data.inputs.shape[1], rep_dim, student_depth, rng
        )
        train_data = data
    else:
        student = state.students[-1].copy()
        t, _ = teacher.forward(data.inputs)
        norms = np.linalg.norm(t - state.rep(data.inputs), axis=1)
        train_data = residual_subsample(
            data, norms, cfg.subsample_top_pct, cfg.subsample_rand_pct,
            fork_seed(cfg.seed, f"subsample-{round_index}"),
        )

    # the subsample's own forward passes: a row subset of a BLAS product need not
    # equal the product of the row subset
    t_reps, _ = teacher.forward(train_data.inputs)
    prev_reps = np.zeros_like(t_reps) if first else state.rep(train_data.inputs)
    target = t_reps - prev_reps
    lam = 0.0 if first else cfg.lambda_stack

    opt = nn.Optimizer(kind=nn.ADAM, learning_rate=cfg.learning_rate)
    n = len(train_data)
    epoch_losses: list[float] = []
    for _epoch in range(cfg.epochs_per_student):
        perm = rng.permutation(n)
        # this epoch's own gathered rows: each batch is a slice, and its targets are scratch
        inputs, prevs, targets = train_data.inputs[perm], prev_reps[perm], target[perm]
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            s_final, s_mid = student.forward(inputs[rows])
            m = len(s_final)
            pb = prevs[rows]
            r = targets[rows]
            r -= s_final
            q = pb - s_mid
            # boost + lam * stack loss, each mean summed and divided as np.mean does
            loss = (0.5 * (np.add.reduce(np.add.reduce(r * r, axis=1)) / m)
                    + lam * 0.5 * (np.add.reduce(np.add.reduce(q * q, axis=1)) / m))
            if not np.isfinite(loss):
                raise FloatingPointError("training loss diverged")
            total += loss * m
            np.negative(r, out=r)  # d_final = -r / m
            r /= m
            d_mid = lam * (s_mid - pb) / m if lam else None
            opt.step(student, student.backward(r, d_mid))
        epoch_losses.append(total / n)
    return student, epoch_losses


def sequential_training(
    teacher,
    splits: DataSplits,
    cfg: DistillConfig,
    seed_student: nn.StudentModel | None = None,
    student_depth: int = STUDENT_DEPTH,
) -> tuple[EnsembleState, list[ConvergenceRecord]]:
    """Grow the boosting ensemble until it overfits, halts, or hits the cap.

    Each round trains one student, fits its multiplier by line search on
    the training split, and logs a ConvergenceRecord. Stopping:
      * halting: the new student's inner product with the residual is
        nonpositive; the student is discarded (it cannot reduce the loss
        through a positive step) and training ends.
      * overfitting: validation residual MSE fails to improve for
        ``overfit_patience`` rounds; the final student is discarded.
      * cap: ``max_students`` reached.
    """
    if len(splits.train) == 0 or len(splits.validation) == 0:
        raise ValueError("training requires nonempty train and validation splits")
    state = EnsembleState()
    records: list[ConvergenceRecord] = []
    # teacher and running ensemble representations, each from whole-split forward
    # passes: prev + alpha * s adds the students in the order state.rep sums them
    (t_train, _), (t_val, _) = teacher.forward(splits.train.inputs), teacher.forward(splits.validation.inputs)
    prev_train, prev_val = np.zeros_like(t_train), np.zeros_like(t_val)
    best_val = np.inf
    stall = 0
    for round_index in range(cfg.max_students):
        student, _ = train_one_student(
            teacher, state, splits.train, cfg, round_index, seed_student, student_depth
        )
        s_train, _ = student.forward(splits.train.inputs)
        alpha, inner, halted = halting_probe(t_train, prev_train, s_train)
        if round_index == 0:
            alpha = 1.0  # pinned by definition of the ensemble
        if halted and round_index > 0:
            records.append(ConvergenceRecord(
                round=round_index, residual_mse=_half_mse(t_val, prev_val),
                inner_product=inner, step_size=alpha, halted=True,
            ))
            break
        state.add(student, alpha)
        s_val, _ = student.forward(splits.validation.inputs)
        if round_index == 0:
            prev_train, prev_val = alpha * s_train, alpha * s_val
        else:
            prev_train, prev_val = prev_train + alpha * s_train, prev_val + alpha * s_val
        val_mse = _half_mse(t_val, prev_val)
        records.append(ConvergenceRecord(
            round=round_index, residual_mse=val_mse,
            inner_product=inner, step_size=alpha, halted=inner <= 0.0,
        ))
        if val_mse < best_val - cfg.min_improvement:
            best_val = val_mse
            stall = 0
        else:
            stall += 1
            if stall >= cfg.overfit_patience:
                state.drop_last()  # the round that overfitted
                break
    if len(state) == 0:
        raise RuntimeError("no student survived training")
    return state, records


# -- adaptive pruning ---------------------------------------------------------


def _softmax(z: np.ndarray) -> np.ndarray:
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _log_softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log softmax(z) and softmax(z) along the last axis, from one exp(z - max)
    and one row sum; the softmax is ``_softmax(z)``, bit for bit."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    sums = e.sum(axis=-1, keepdims=True)
    log_p = shifted - np.log(sums)
    e /= sums
    return log_p, e


def _soft_labels(teacher_logits, temperature: float) -> np.ndarray:
    """The teacher's soft labels softmax(logits / T); the logits must be finite."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    t = np.asarray(teacher_logits, dtype=np.float64)
    if not np.isfinite(t).all():
        raise ValueError("logits must be finite")
    return _softmax(t / temperature)


def soft_cross_entropy(student_logits, teacher_logits, temperature: float = 1.0) -> float:
    """Cross-entropy of student logits against the teacher's soft labels."""
    t = _soft_labels(teacher_logits, temperature)
    s = np.asarray(student_logits, dtype=np.float64)
    if s.shape != t.shape:
        raise ValueError("logit width mismatch")
    if not np.isfinite(s).all():
        raise ValueError("logits must be finite")
    log_p, _ = _log_softmax(s / temperature)
    return float(np.mean(np.sum(-t * log_p, axis=-1)))


def accumulate_prefix_gradients(
    state: EnsembleState,
    xb: np.ndarray,
    teacher_logits: np.ndarray | None,
    temperature: float,
    *,
    soft_labels: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """One batch of the pruning objective: sum over k of soft CE on prefix k.

    The students run forward together as one stacked bank, one cumulative sum
    builds all M prefix representations, and the classifier runs forward and
    backward once over them stacked, which sums its per-prefix gradients.
    Student j feeds every prefix k >= j, and backward is linear in its
    upstream gradient, so the bank back-propagates once, student j with
    alpha_j times the suffix sum over k >= j of the prefix representations'
    gradients, straight into its block of the gradient. The gradient is one
    float64 array laid out like ``state.flat``, the classifier and then every
    student, and named by ``state.layout``. The students run as the state's
    ``layers``. A caller that holds the teacher's soft labels
    ``_soft_labels(teacher_logits, temperature)`` passes them as
    ``soft_labels``, and ``teacher_logits`` is then not read.

    The loss and its logit gradient are those of ``soft_cross_entropy`` on the
    m prefixes stacked, with each prefix's rows against the same soft labels.
    """
    m, n = len(state), len(xb)
    clf = state.classifier
    xb = np.asarray(xb, dtype=np.float64)
    alphas = np.asarray(state.multipliers)[:, None, None]
    acts = []
    finals = _bank_forward(state.layers, xb, acts)
    reps = np.cumsum(alphas * finals, axis=0).reshape(m * n, -1)  # same additions as rep + alpha * f
    logits = clf.forward(reps)
    if soft_labels is None:
        soft_labels = _soft_labels(teacher_logits, temperature)
    if soft_labels.shape != (n, logits.shape[1]):
        raise ValueError("logit width mismatch")
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    log_p, p = _log_softmax(logits / temperature)
    total = m * float(np.mean(np.sum(-soft_labels * log_p.reshape(m, n, -1), axis=-1)))
    d_logits = ((p.reshape(m, n, -1) - soft_labels) / (temperature * n)).reshape(m * n, -1)
    grad = np.empty_like(state.flat)
    d_reps, _, _ = clf.backward(d_logits, *clf.grad_views(grad))
    suffix = np.cumsum(d_reps.reshape(m, n, -1)[::-1], axis=0)[::-1]
    _bank_backward(state.layers, xb, acts, alphas * suffix, grad[clf.span[2]:].reshape(m, -1))
    return grad, total


def prefix_accuracies(state: EnsembleState, data: Dataset) -> list[float]:
    """Hard-label accuracy of classifier(prefix-k representation) for k = 1..M,
    from one stacked forward of the students."""
    if state.classifier is None:
        raise ValueError("ensemble has no trained classifier")
    return [float(np.mean(np.argmax(state.classifier.forward(rep), axis=1) == data.labels))
            for rep in _prefix_sums(state, data.inputs, len(state))]


def adaptive_pruning(
    teacher,
    state: EnsembleState,
    splits: DataSplits,
    cfg: DistillConfig,
) -> tuple[EnsembleState, AccuracyTable, int]:
    """Train the shared classifier over all prefixes, then pick the best one.

    Per batch the prefix losses for k = 1..M are accumulated into a single
    gradient, and one optimizer step applies it to the state, the new
    classifier and every student together, so any suffix of students can be
    dropped later with accuracy known from the table.
    best_k maximizes validation accuracy, ties going to the smaller
    (cheaper) prefix.
    """
    m = len(state)
    if m == 0:
        raise ValueError("cannot prune an empty ensemble")
    rng = rng_for(cfg.seed, "pruning")
    state.classifier = nn.DenseLayer.init(teacher.head.out_dim, teacher.rep_dim, nn.IDENTITY, rng)
    _, t_logits_train = teacher.forward(splits.train.inputs)
    soft_labels = _soft_labels(t_logits_train, cfg.soft_ce_temperature)  # rows are taken per batch
    opt = nn.Optimizer(kind=nn.ADAM, learning_rate=cfg.learning_rate)
    n = len(splits.train)
    for _epoch in range(cfg.pruning_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            grad, loss = accumulate_prefix_gradients(
                state, splits.train.inputs[idx], None, cfg.soft_ce_temperature, soft_labels=soft_labels[idx])
            if not np.isfinite(loss):
                raise FloatingPointError("pruning loss diverged")
            opt.step(state, grad)
    rows = list(zip(range(1, m + 1), prefix_accuracies(state, splits.validation),
                    prefix_accuracies(state, splits.test)))
    table = AccuracyTable(rows)
    best_k, best_acc = 1, -1.0
    for k, val_acc, _ in rows:
        if val_acc > best_acc:  # strict: ties keep the smaller k
            best_k, best_acc = k, val_acc
    return state, table, best_k


# -- table and ensemble persistence -------------------------------------------


def export_accuracy_table(table: AccuracyTable, path) -> None:
    """CSV with header k,val_acc,test_acc and 6-decimal fixed formatting."""
    if len(table) == 0:
        raise ValueError("refusing to export an empty accuracy table")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "val_acc", "test_acc"])
        for k, val_acc, test_acc in table.rows:
            writer.writerow([k, f"{val_acc:.6f}", f"{test_acc:.6f}"])


def load_accuracy_table(path) -> AccuracyTable:
    """Read a table that export_accuracy_table wrote. A malformed one raises ValueError naming
    ``path`` and the line at fault, as the trace reader names its lines."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != ["k", "val_acc", "test_acc"]:
                raise ValueError(f"expected header k,val_acc,test_acc, got {header}")
            for row in reader:
                if len(row) != 3:
                    raise ValueError(f"expected 3 fields, got {row!r}")
                k, va, ta = int(row[0]), float(row[1]), float(row[2])
                _check_table_row(len(rows) + 1, k, va, ta)
                rows.append((k, va, ta))
        except (ValueError, csv.Error) as exc:  # csv.Error: a field past csv.field_size_limit(), say
            raise ValueError(f"{path}: line {reader.line_num or 1}: {exc}") from exc
    return AccuracyTable(rows)


def ensemble_to_dict(state: EnsembleState) -> dict:
    return {
        "schema": "ensemble-checkpoint-v1",
        "mode": nn._MODE,
        "multipliers": state.multipliers,
        "students": [nn.model_to_dict(s) for s in state.students],
        "classifier": None if state.classifier is None else nn._layer_to_dict(state.classifier),
    }


def ensemble_from_dict(d: dict) -> EnsembleState:
    nn._check_header(d, "ensemble-checkpoint-v1")
    students = [nn.model_from_dict(s) for s in d["students"]]
    if not all(isinstance(s, nn.StudentModel) for s in students):
        raise ValueError("ensemble checkpoint holds a model that is not a student")
    multipliers = [float(a) for a in d["multipliers"]]
    if not np.isfinite(multipliers).all():
        raise ValueError("ensemble checkpoint holds non-finite multipliers")
    classifier = None if d["classifier"] is None else nn._layer_from_dict(d["classifier"])
    return EnsembleState(students, multipliers, classifier)


def save_ensemble(state: EnsembleState, path) -> None:
    nn.write_json(path, ensemble_to_dict(state))


def load_ensemble(path) -> EnsembleState:
    """Read an ensemble checkpoint; a malformed one raises ValueError naming ``path``."""
    return nn.read_json(path, ensemble_from_dict)


# -- teacher training (artifact plumbing) --------------------------------------


def train_teacher(
    teacher: nn.TeacherModel,
    splits: DataSplits,
    epochs: int = TEACHER_EPOCHS,
    learning_rate: float = 1e-3,
    batch_size: int = TEACHER_BATCH_SIZE,
    seed: int = 0,
    optimizer_kind: str = nn.ADAM,
) -> list[float]:
    """Supervised training of the teacher on hard labels; returns epoch losses.

    The deep residual net memorizes small training sets quickly, so the
    parameters that scored best on the validation split are restored at
    the end (epoch count then only bounds the search).
    """
    rng = rng_for(seed, "teacher-training")
    opt = nn.Optimizer(kind=optimizer_kind, learning_rate=learning_rate)
    n = len(splits.train)
    n_classes = teacher.head.out_dim
    onehot = np.eye(n_classes)[splits.train.labels]
    losses = []
    best_val, best_flat = -1.0, None
    for _epoch in range(epochs):
        perm = rng.permutation(n)
        inputs, epoch_labels = splits.train.inputs[perm], onehot[perm]
        total = 0.0
        for start in range(0, n, batch_size):
            labels = epoch_labels[start:start + batch_size]
            m = len(labels)
            _, logits = teacher.forward(inputs[start:start + batch_size])
            p = _softmax(logits)
            log_p = p + 1e-12
            np.log(log_p, out=log_p)
            log_p *= labels
            # the mean cross-entropy, summed and divided as np.mean does
            loss = float(np.add.reduce(-np.add.reduce(log_p, axis=1)) / m)
            if not np.isfinite(loss):
                raise FloatingPointError("teacher training diverged")
            total += loss * m
            p -= labels
            p /= m
            opt.step(teacher, teacher.backward(None, p))
        losses.append(total / n)
        val_acc = teacher_accuracy(teacher, splits.validation)
        if val_acc > best_val:
            best_val = val_acc
            best_flat = teacher.flat.copy()
    if best_flat is not None:
        teacher.flat[...] = best_flat
    return losses


def teacher_accuracy(teacher: nn.TeacherModel, data: Dataset) -> float:
    _, logits = teacher.forward(data.inputs)
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))


def ensemble_accuracy_via_teacher_head(teacher: nn.TeacherModel, state: EnsembleState, data: Dataset) -> float:
    """Accuracy of the ensemble representation pushed through the teacher's head.

    Useful before the pruning stage trains a dedicated classifier: the
    ensemble approximates the teacher's representation, so the teacher's
    own head is a sensible readout.
    """
    logits = teacher.head.forward(state.rep(data.inputs))
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))
