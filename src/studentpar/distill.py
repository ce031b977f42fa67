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
import json
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


def check_positive(source, names) -> None:
    """Raise ValueError unless each named value that ``source`` holds is a finite number > 0."""
    values = _named_values(source, names)
    for name in names:
        value = values.get(name, 1.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
                math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


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
    check_counts(locals(), {"d_in": 1, "n_train": 1, "n_val": 1, "n_test": 1})
    if not 2 <= n_classes <= 8:
        raise ValueError("n_classes must be in [2, 8]")
    rng = rng_for(seed, "gaussian-task")
    means = rng.normal(size=(n_classes, d_in))
    means *= (class_sep / 2.0) / np.linalg.norm(means, axis=1, keepdims=True)

    def draw(n: int) -> Dataset:
        labels = rng.integers(0, n_classes, size=n)
        inputs = means[labels] + rng.normal(size=(n, d_in))
        return Dataset(inputs, labels)

    return DataSplits(draw(n_train), draw(n_val), draw(n_test))


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
        if self.lambda_stack < 0:
            raise ValueError("lambda_stack must be nonnegative")
        if self.soft_ce_temperature <= 0:
            raise ValueError("soft_ce_temperature must be positive")
        a, b = self.subsample_top_pct, self.subsample_rand_pct
        if not (0 <= a <= 100 and 0 <= b <= 100 and 0 < a + b <= 100):
            raise ValueError("subsample percentages must satisfy 0 <= a, b and 0 < a + b <= 100")
        check_counts(self, {"max_students": 1, "epochs_per_student": 1, "batch_size": 1,
                                  "pruning_epochs": 0, "overfit_patience": 1})
        check_positive(self, ("learning_rate",))
        if not math.isfinite(self.min_improvement):
            raise ValueError(f"min_improvement must be finite, got {self.min_improvement!r}")


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
        for i, (k, va, ta) in enumerate(self.rows, start=1):
            if k != i:
                raise ValueError("k must run 1..M with no gaps")
            if not (0 <= va <= 1 and 0 <= ta <= 1):
                raise ValueError("accuracies must be in [0, 1]")

    def val_accuracy(self, k: int) -> float:
        return self.rows[k - 1][1]

    def __len__(self) -> int:
        return len(self.rows)


class EnsembleState:
    """Ordered students, their multipliers, and the shared classifier.

    The prefix ensemble of the first k students is sum_{m<k} alpha_m * S_m.
    alpha_0 is pinned to 1; later multipliers are whatever the line search
    produced when each student was added (no clamping).
    """

    def __init__(self, students=None, multipliers=None, classifier: nn.DenseLayer | None = None):
        self.students: list[nn.StudentModel] = list(students or [])
        self.multipliers: list[float] = list(multipliers or [])
        if len(self.students) != len(self.multipliers):
            raise ValueError("students and multipliers must have equal length")
        if self.multipliers and self.multipliers[0] != 1.0:
            raise ValueError("the first multiplier must be exactly 1")
        self.classifier = classifier

    def __len__(self) -> int:
        return len(self.students)

    def add(self, student: nn.StudentModel, alpha: float) -> None:
        if not self.students and alpha != 1.0:
            raise ValueError("the first multiplier must be exactly 1")
        self.students.append(student)
        self.multipliers.append(float(alpha))

    def drop_last(self) -> None:
        self.students.pop()
        self.multipliers.pop()

    def rep(self, x: np.ndarray, k: int | None = None) -> np.ndarray:
        """Prefix-ensemble representation of the first k students."""
        k = len(self.students) if k is None else k
        if not 1 <= k <= len(self.students):
            raise ValueError(f"k={k} out of range 1..{len(self.students)}")
        out = None
        for alpha, student in zip(self.multipliers[:k], self.students[:k]):
            final, _ = student.forward(x)
            out = alpha * final if out is None else out + alpha * final
        return out


# -- losses ------------------------------------------------------------------


def _check_width(*vecs):
    w = np.asarray(vecs[0]).shape[-1]
    for v in vecs[1:]:
        if np.asarray(v).shape[-1] != w:
            raise ValueError("representation width mismatch")


def boost_loss(t_rep, prev_ensemble, s_final) -> float:
    """Residual fitting loss: half squared error of (teacher - ensemble - student)."""
    _check_width(t_rep, prev_ensemble, s_final)
    r = np.asarray(t_rep) - np.asarray(prev_ensemble) - np.asarray(s_final)
    return 0.5 * float(np.sum(r * r))

def stack_loss(prev_ensemble, s_mid) -> float:
    """Mid-layer imitation loss: half squared error of (ensemble - mid rep)."""
    _check_width(prev_ensemble, s_mid)
    q = np.asarray(prev_ensemble) - np.asarray(s_mid)
    return 0.5 * float(np.sum(q * q))


def combined_loss(t_rep, prev_ensemble, s_final, s_mid, lambda_stack: float) -> float:
    if lambda_stack < 0:
        raise ValueError("lambda_stack must be nonnegative")
    return boost_loss(t_rep, prev_ensemble, s_final) + lambda_stack * stack_loss(prev_ensemble, s_mid)


def _step_numerator_denominator(t_reps, prev_reps, s_reps) -> tuple[float, float]:
    t = np.asarray(t_reps, dtype=np.float64)
    p = np.asarray(prev_reps, dtype=np.float64)
    s = np.asarray(s_reps, dtype=np.float64)
    if not (t.shape == p.shape == s.shape) or t.size == 0:
        raise ValueError("representation lists must be nonempty and congruent")
    num = float(np.sum((t - p) * s))
    den = float(np.sum(s * s))
    return num, den


def anyboost_step(t_reps, prev_reps, s_reps, lipschitz: float) -> float:
    """Functional-gradient step size: <t - prev, s> / (L * |s|^2), summed over samples.

    With L == 1 this is exactly the line-search minimizer, since the loss
    gradient with respect to the ensemble output is -(t - prev).
    """
    if lipschitz < 1:
        raise ValueError("lipschitz must be >= 1")
    num, den = _step_numerator_denominator(t_reps, prev_reps, s_reps)
    if den == 0.0:
        raise ValueError("degenerate student: all representations are zero")
    return num / (lipschitz * den)


def line_search_alpha(t_reps, prev_reps, s_reps) -> float:
    """Closed-form minimizer of the summed quadratic residual loss."""
    return anyboost_step(t_reps, prev_reps, s_reps, lipschitz=1.0)


def halting_probe(t_reps, prev_reps, s_reps) -> tuple[float, float, bool]:
    """Return (alpha, inner_product, halted) for one boosting round.

    halted fires when the new student's correlation with the residual is
    nonpositive, i.e. it is not a descent direction.
    """
    num, den = _step_numerator_denominator(t_reps, prev_reps, s_reps)
    if den == 0.0:
        raise ValueError("degenerate student: all representations are zero")
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


def _teacher_reps(teacher, x: np.ndarray) -> np.ndarray:
    rep, _ = teacher.forward(x)
    return rep


def _prev_reps(state: EnsembleState, x: np.ndarray, width: int) -> np.ndarray:
    if len(state) == 0:
        return np.zeros((len(x), width))
    return state.rep(x)


def residual_mse(teacher, state: EnsembleState, data: Dataset, k: int | None = None) -> float:
    """Mean over samples of the half squared residual norm."""
    t = _teacher_reps(teacher, data.inputs)
    prev = state.rep(data.inputs, k) if len(state) else np.zeros_like(t)
    r = t - prev
    return 0.5 * float(np.mean(np.sum(r * r, axis=1)))


def train_one_student(
    teacher,
    state: EnsembleState,
    data: Dataset,
    cfg: DistillConfig,
    round_index: int = 0,
    seed_student: nn.StudentModel | None = None,
    student_depth: int = 2,
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
        t = _teacher_reps(teacher, data.inputs)
        prev = state.rep(data.inputs)
        norms = np.linalg.norm(t - prev, axis=1)
        train_data = residual_subsample(
            data, norms, cfg.subsample_top_pct, cfg.subsample_rand_pct,
            fork_seed(cfg.seed, f"subsample-{round_index}"),
        )

    t_reps = _teacher_reps(teacher, train_data.inputs)
    prev_reps = _prev_reps(state, train_data.inputs, rep_dim)
    lam = 0.0 if first else cfg.lambda_stack

    opt = nn.Optimizer(kind=nn.ADAM, learning_rate=cfg.learning_rate)
    n = len(train_data)
    epoch_losses: list[float] = []
    for _epoch in range(cfg.epochs_per_student):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            xb = train_data.inputs[idx]
            tb, pb = t_reps[idx], prev_reps[idx]
            s_final, s_mid = student.forward(xb)
            r = tb - pb - s_final
            q = pb - s_mid
            loss = 0.5 * np.mean(np.sum(r * r, axis=1)) + lam * 0.5 * np.mean(np.sum(q * q, axis=1))
            if not np.isfinite(loss):
                raise FloatingPointError("training loss diverged")
            total += loss * len(idx)
            d_final = -r / len(idx)
            d_mid = lam * (s_mid - pb) / len(idx) if lam else None
            grads = student.backward(d_final, d_mid)
            opt.step(student, grads)
        epoch_losses.append(total / n)
    return student, epoch_losses


def sequential_training(
    teacher,
    splits: DataSplits,
    cfg: DistillConfig,
    seed_student: nn.StudentModel | None = None,
    student_depth: int = 2,
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
    t_train = _teacher_reps(teacher, splits.train.inputs)
    best_val = np.inf
    stall = 0
    for round_index in range(cfg.max_students):
        student, _ = train_one_student(
            teacher, state, splits.train, cfg, round_index, seed_student, student_depth
        )
        s_train, _ = student.forward(splits.train.inputs)
        prev_train = _prev_reps(state, splits.train.inputs, teacher.rep_dim)
        alpha, inner, halted = halting_probe(t_train, prev_train, s_train)
        if round_index == 0:
            alpha = 1.0  # pinned by definition of the ensemble
        if halted and round_index > 0:
            records.append(ConvergenceRecord(
                round=round_index,
                residual_mse=residual_mse(teacher, state, splits.validation),
                inner_product=inner, step_size=alpha, halted=True,
            ))
            break
        state.add(student, alpha)
        val_mse = residual_mse(teacher, state, splits.validation)
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
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def soft_cross_entropy(student_logits, teacher_logits, temperature: float = 1.0) -> float:
    """Cross-entropy of student logits against the teacher's soft labels."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    s = np.asarray(student_logits, dtype=np.float64)
    t = np.asarray(teacher_logits, dtype=np.float64)
    if s.shape != t.shape:
        raise ValueError("logit width mismatch")
    if not (np.isfinite(s).all() and np.isfinite(t).all()):
        raise ValueError("logits must be finite")
    s, t = s / temperature, t / temperature
    log_p = s - s.max(axis=-1, keepdims=True)
    log_p = log_p - np.log(np.exp(log_p).sum(axis=-1, keepdims=True))
    return float(np.mean(np.sum(-_softmax(t) * log_p, axis=-1)))


class _PruningParams:
    """Classifier plus every student in one flat parameter buffer.

    Construction moves the classifier's parameters, then each student's, into
    consecutive slices of ``flat`` (a student's own ``flat`` becomes its
    slice), so one optimizer step updates them all. The order matches the
    gradient layout of ``accumulate_prefix_gradients``.
    """

    def __init__(self, state: EnsembleState):
        self.state = state
        clf = state.classifier
        start = clf.weight.size + clf.bias.size
        self.flat = np.empty(start + sum(s.flat.size for s in state.students))
        nn._home([clf], self.flat[:start])
        for student in state.students:
            student.move_to(self.flat[start:start + student.flat.size])
            start += student.flat.size

    def parameters(self) -> dict[str, np.ndarray]:
        params = {f"classifier.{k}": v for k, v in {
            "weight": self.state.classifier.weight, "bias": self.state.classifier.bias,
        }.items()}
        for j, student in enumerate(self.state.students):
            for name, arr in student.parameters().items():
                params[f"students.{j}.{name}"] = arr
        return params


def _pruning_layout(state: EnsembleState) -> list[tuple]:
    """Gradient layout over the classifier and then every student, in ensemble order."""
    clf = state.classifier
    layout = nn._layout({"weight": clf.weight, "bias": clf.bias}, prefix="classifier.")
    for j, student in enumerate(state.students):
        layout += nn._layout(student.parameters(), layout[-1][2], f"students.{j}.")
    return layout


def accumulate_prefix_gradients(
    state: EnsembleState,
    xb: np.ndarray,
    teacher_logits: np.ndarray,
    temperature: float,
    layout: list[tuple] | None = None,
) -> tuple[nn.TapeGradients, float]:
    """One batch of the pruning objective: sum over k of soft CE on prefix k.

    Every student runs forward once, one cumulative sum builds all M prefix
    representations, and the classifier runs forward and backward once over
    them stacked, which sums its per-prefix gradients. Student j feeds every
    prefix k >= j, and backward is linear in its upstream gradient, so each
    student back-propagates once, with alpha_j times the suffix sum over
    k >= j of the prefix representations' gradients. The tape covers the
    classifier and then every student (``layout``, built from the state
    when not given).
    """
    m, n = len(state), len(xb)
    clf = state.classifier
    layout = _pruning_layout(state) if layout is None else layout
    alphas = np.asarray(state.multipliers)[:, None, None]
    finals = np.stack([student.forward(xb)[0] for student in state.students])
    reps = np.cumsum(alphas * finals, axis=0).reshape(m * n, -1)  # same additions as rep + alpha * f
    logits = clf.forward(reps)
    t_logits = np.tile(np.asarray(teacher_logits, dtype=np.float64), (m, 1))
    total = m * soft_cross_entropy(logits, t_logits, temperature)
    d_logits = (_softmax(logits / temperature) - _softmax(t_logits / temperature)) / (temperature * n)
    d_reps, dw, db = clf.backward(d_logits)
    suffix = np.cumsum(d_reps.reshape(m, n, -1)[::-1], axis=0)[::-1]
    grad = np.empty(layout[-1][2])
    start = clf.weight.size
    grad[:start] = dw.reshape(-1)
    grad[start:start + db.size] = db
    start += db.size
    for alpha, student, d_rep in zip(state.multipliers, state.students, suffix):
        grad[start:start + student.flat.size] = student.backward(alpha * d_rep, None).flat
        start += student.flat.size
    return nn.TapeGradients.over(grad, layout), total


def prefix_accuracy(state: EnsembleState, data: Dataset, k: int) -> float:
    """Hard-label accuracy of classifier(prefix-k representation)."""
    if state.classifier is None:
        raise ValueError("ensemble has no trained classifier")
    logits = state.classifier.forward(state.rep(data.inputs, k))
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))


def adaptive_pruning(
    teacher,
    state: EnsembleState,
    splits: DataSplits,
    cfg: DistillConfig,
) -> tuple[EnsembleState, AccuracyTable, int]:
    """Train the shared classifier over all prefixes, then pick the best one.

    Per batch the prefix losses for k = 1..M are accumulated into a single
    gradient tape and applied in one optimizer step, so any suffix of
    students can be dropped later with accuracy known from the table.
    best_k maximizes validation accuracy, ties going to the smaller
    (cheaper) prefix.
    """
    m = len(state)
    if m == 0:
        raise ValueError("cannot prune an empty ensemble")
    rng = rng_for(cfg.seed, "pruning")
    n_classes = teacher.head.out_dim
    state.classifier = nn.DenseLayer.init(n_classes, teacher.rep_dim, nn.IDENTITY, rng)
    _, t_logits_train = teacher.forward(splits.train.inputs)
    opt = nn.Optimizer(kind=nn.ADAM, learning_rate=cfg.learning_rate)
    params = _PruningParams(state)
    layout = _pruning_layout(state)
    n = len(splits.train)
    for _epoch in range(cfg.pruning_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            tape, loss = accumulate_prefix_gradients(
                state, splits.train.inputs[idx], t_logits_train[idx], cfg.soft_ce_temperature, layout
            )
            if not np.isfinite(loss):
                raise FloatingPointError("pruning loss diverged")
            opt.step(params, tape)
    rows = [
        (k, prefix_accuracy(state, splits.validation, k), prefix_accuracy(state, splits.test, k))
        for k in range(1, m + 1)
    ]
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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["k", "val_acc", "test_acc"]:
            raise ValueError(f"unexpected accuracy table header: {header}")
        rows = [(int(k), float(va), float(ta)) for k, va, ta in reader]
    return AccuracyTable(rows)


def ensemble_to_dict(state: EnsembleState, mode: str = "binary") -> dict:
    return {
        "schema": "ensemble-checkpoint-v1",
        "mode": mode,
        "multipliers": state.multipliers,
        "students": [nn.model_to_dict(s, mode) for s in state.students],
        "classifier": None if state.classifier is None else nn._layer_to_dict(state.classifier, mode),
    }


def ensemble_from_dict(d: dict) -> EnsembleState:
    if not isinstance(d, dict) or d.get("schema") != "ensemble-checkpoint-v1":
        raise ValueError("not an ensemble checkpoint")
    students = [nn.model_from_dict(s) for s in d["students"]]
    if not all(isinstance(s, nn.StudentModel) for s in students):
        raise ValueError("ensemble checkpoint holds a model that is not a student")
    multipliers = [float(a) for a in d["multipliers"]]
    if not np.isfinite(multipliers).all():
        raise ValueError("ensemble checkpoint holds non-finite multipliers")
    classifier = None if d["classifier"] is None else nn._layer_from_dict(d["classifier"], d["mode"])
    return EnsembleState(students, multipliers, classifier)


def save_ensemble(state: EnsembleState, path, mode: str = "binary") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ensemble_to_dict(state, mode), fh, indent=1)
        fh.write("\n")


def load_ensemble(path) -> EnsembleState:
    with open(path, "r", encoding="utf-8") as fh:
        return ensemble_from_dict(json.load(fh))


# -- teacher training (artifact plumbing) --------------------------------------


def train_teacher(
    teacher: nn.TeacherModel,
    splits: DataSplits,
    epochs: int = 300,
    learning_rate: float = 1e-3,
    batch_size: int = 32,
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
        total = 0.0
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            _, logits = teacher.forward(splits.train.inputs[idx])
            p = _softmax(logits)
            loss = float(np.mean(-np.sum(onehot[idx] * np.log(p + 1e-12), axis=1)))
            if not np.isfinite(loss):
                raise FloatingPointError("teacher training diverged")
            total += loss * len(idx)
            grads = teacher.backward(None, (p - onehot[idx]) / len(idx))
            opt.step(teacher, grads)
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
