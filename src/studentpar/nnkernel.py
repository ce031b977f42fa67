"""Minimal dense neural-network kernel.

Float64 throughout, deterministic given identical parameter and input
bytes. Expresses exactly two architectures: a deep residual teacher and a
shallow student whose mid-layer representation is tapped for distillation.
Each model keeps all of its parameters in one contiguous float64 buffer,
``model.flat``. ``_home`` writes every layer's weight and bias into it, points
the layer at those views, and returns the one layout, (name, start, stop,
shape) per parameter, ``model.layout``, through which ``parameters()``, the
optimizer and the pruning buffer all name their views. A gradient is exact
reverse-mode and is one fresh float64 array laid out like ``model.flat``; its
names are those of ``model.layout``. An optimizer step is one finiteness check
and one vector update; it uses the gradient as scratch, so a stepped gradient
is spent.

The models run on views built once per buffer, not on ``DenseLayer`` calls.
A forward writes its activations into stacked (depth, n, width) arrays, fresh
for each call. A teacher's blocks (and a student's layers) share one shape and
sit at one stride in ``flat``, so backward runs only the chain per block and
then writes every block's weight and bias gradients with one stacked
``np.matmul`` or ``np.add.reduce`` each. numpy makes the same BLAS call and
the same row sums per slice as per layer, so the results are bitwise those of
the per-layer ``DenseLayer`` path.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

TANH = "tanh"
IDENTITY = "identity"

_ACTIVATIONS = (TANH, IDENTITY)


def _glorot_uniform(out_dim: int, in_dim: int, rng: np.random.Generator) -> np.ndarray:
    limit = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def _rows(a) -> np.ndarray:
    """``a`` as float64, one row per sample: a single sample becomes one row."""
    a = np.asarray(a, dtype=np.float64)
    return a[None, :] if a.ndim == 1 else a


def _dense(x: np.ndarray, weight_t: np.ndarray, bias: np.ndarray, activation: str,
           out: np.ndarray | None = None) -> np.ndarray:
    """act(x W^T + b), given W^T, into ``out`` when given."""
    out = np.dot(x, weight_t, out=out)
    out += bias
    if activation == TANH:
        np.tanh(out, out=out)
    return out


def _grads(layer: "DenseLayer", x: np.ndarray, a: np.ndarray, d_out: np.ndarray,
           dw: np.ndarray | None = None, db: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dz, d_weight, d_bias) of ``layer`` for input x, output a and upstream d_out;
    dz is the gradient before the activation. d_weight and d_bias land in
    ``dw`` and ``db`` when given."""
    if layer.activation == TANH:
        dz = a * a  # d_out * (1 - a^2), in place
        np.subtract(1.0, dz, out=dz)
        dz *= d_out
    else:
        dz = d_out
    return dz, np.dot(dz.T, x, out=dw), np.add.reduce(dz, axis=0, out=db)


def _input_rows(x, layer: "DenseLayer") -> tuple[np.ndarray, bool]:
    """(x as float64 rows, whether x was a single sample), if its width fits ``layer``."""
    squeeze, x = np.ndim(x) == 1, _rows(x)
    if x.ndim != 2 or x.shape[1] != layer.in_dim:
        raise ValueError(f"input width {x.shape} does not match layer in_dim {layer.in_dim}")
    return x, squeeze


class DenseLayer:
    """Affine map plus elementwise activation: act(W x + b).

    ``forward`` caches its input and output so ``backward`` can run any
    number of times against the same forward pass (gradients accumulate on
    the caller's side). Inside a model, ``weight`` and ``bias`` are views
    into the model's flat buffer and ``span`` holds their offsets in it.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray, activation: str = TANH):
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got shape {weight.shape}")
        if bias.shape != (weight.shape[0],):
            raise ValueError(f"bias shape {bias.shape} does not match weight rows {weight.shape[0]}")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise ValueError("layer parameters must be finite")
        self.weight = weight
        self.bias = bias
        self.activation = activation
        self.span: tuple[int, int, int] | None = None  # weight start, bias start, bias stop
        self._x: np.ndarray | None = None
        self._a: np.ndarray | None = None

    @classmethod
    def init(cls, out_dim: int, in_dim: int, activation: str, rng: np.random.Generator) -> "DenseLayer":
        return cls(_glorot_uniform(out_dim, in_dim, rng), np.zeros(out_dim), activation)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x, squeeze = _input_rows(x, self)
        out = _dense(x, self.weight.T, self.bias, self.activation)
        self._x, self._a = x, out
        return out[0] if squeeze else out

    def backward(
        self, d_out: np.ndarray, dw: np.ndarray | None = None, db: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (d_input, d_weight, d_bias) for upstream gradient d_out.

        ``dw`` and ``db``, when given, are C-contiguous float64 buffers (views into
        a model's gradient, see ``grad_views``) that receive d_weight and d_bias.
        """
        if self._x is None:
            raise RuntimeError("backward called before forward")
        dz, dw, db = _grads(self, self._x, self._a, _rows(d_out), dw, db)
        return np.dot(dz, self.weight), dw, db

    def grad_views(self, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """This layer's (weight, bias) slots in ``grad``, a flat buffer laid out like the model's."""
        w_start, b_start, stop = self.span
        return grad[w_start:b_start].reshape(self.weight.shape), grad[b_start:stop]

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weight.copy(), self.bias.copy(), self.activation)


def _home(named_layers: list[tuple[str, DenseLayer]],
          flat: np.ndarray | None = None) -> tuple[np.ndarray, list[tuple]]:
    """Copy each layer's weight then bias, in order, into ``flat`` (a new buffer
    by default) and point the layer at those views. Returns ``flat`` and its
    layout: (name, start, stop, shape) of ``<layer name>.weight`` and ``.bias``."""
    if flat is None:
        flat = np.empty(sum(layer.weight.size + layer.bias.size for _, layer in named_layers))
    layout, start = [], 0
    for name, layer in named_layers:
        w_stop = start + layer.weight.size
        stop = w_stop + layer.bias.size
        flat[start:w_stop] = layer.weight.reshape(-1)
        flat[w_stop:stop] = layer.bias
        layer.weight = flat[start:w_stop].reshape(layer.weight.shape)
        layer.bias = flat[w_stop:stop]
        layer.span = (start, w_stop, stop)
        layout += [(f"{name}.weight", start, w_stop, layer.weight.shape),
                   (f"{name}.bias", w_stop, stop, layer.bias.shape)]
        start = stop
    return flat, layout


def _views(flat: np.ndarray, layout: list[tuple]) -> dict[str, np.ndarray]:
    """Each parameter that ``layout`` names, as its view into ``flat``."""
    return {name: flat[start:stop].reshape(shape) for name, start, stop, shape in layout}


def _stack_views(unit: list[DenseLayer], count: int):
    """Stacked views of ``count`` same-shaped runs of layers that ``_home`` laid
    out back to back, ``unit`` being the first run. Returns a function that maps
    any buffer laid out like the model's ``flat`` to, per layer of ``unit``, its
    weights as (count, out, in) and its biases as (count, out)."""
    start = unit[0].span[0]
    run = slice(start, start + count * (unit[-1].span[2] - start))
    cuts = [(slice(w_start - start, b_start - start), (count, *layer.weight.shape), slice(b_start - start, stop - start))
            for layer in unit for w_start, b_start, stop in [layer.span]]

    def views(buf: np.ndarray) -> list[np.ndarray]:
        rows = buf[run].reshape(count, -1)
        out = []
        for weight, shape, bias in cuts:
            out += [rows[:, weight].reshape(shape), rows[:, bias]]
        return out
    return views


class _ResidualBlock:
    """One teacher block: h -> h + project(expand(h))."""

    def __init__(self, expand: DenseLayer, project: DenseLayer):
        self.expand = expand
        self.project = project

    def copy(self) -> "_ResidualBlock":
        return _ResidualBlock(self.expand.copy(), self.project.copy())


class TeacherModel:
    """Deep residual dense network with a classification head.

    The chain h_i = h_{i-1} + F_i(h_{i-1}) accumulates refinements on top of
    the projected input; the final representation is the stream after the
    last block, and the head maps it to class logits. Construction copies
    every layer's parameters into the model's flat buffer. The blocks share
    one shape, so ``_home`` lays them out at one stride and backward writes
    every block's weight gradients with one stacked call per parameter.
    """

    def __init__(self, input_proj: DenseLayer, blocks: list[_ResidualBlock], head: DenseLayer):
        if not blocks:
            raise ValueError("teacher needs at least 1 residual block")
        rep, hidden = input_proj.out_dim, blocks[0].expand.out_dim
        shapes = [(b.expand.weight.shape, b.project.weight.shape) for b in blocks]
        if head.in_dim != rep or any(shape != ((hidden, rep), (rep, hidden)) for shape in shapes):
            raise ValueError(f"teacher layers do not chain at width {rep}: blocks {shapes}, head {head.weight.shape}")
        self.input_proj = input_proj
        self.blocks = blocks
        self.head = head
        self._x = self._block_acts = None
        self.flat, self.layout = _home([
            ("input_proj", input_proj),
            *((f"blocks.{i}.{part}", layer) for i, b in enumerate(blocks)
              for part, layer in (("expand", b.expand), ("project", b.project))),
            ("head", head)])
        # views of flat for the forward: transposed weights, every block's biases stacked
        # (depth, 1, out); _block_views makes the stacked views of any buffer laid out like flat
        self._chain = [(b.expand, b.expand.weight.T, b.project, b.project.weight.T) for b in blocks]
        self._input_t, self._head_t = input_proj.weight.T, head.weight.T
        self._block_views = _stack_views([blocks[0].expand, blocks[0].project], len(blocks))
        _, b_exp, _, b_proj = self._block_views(self.flat)
        self._block_biases = b_exp[:, None], b_proj[:, None]

    @classmethod
    def build(
        cls,
        d_in: int,
        rep_dim: int,
        hidden_dim: int,
        depth: int,
        n_classes: int,
        rng: np.random.Generator,
    ) -> "TeacherModel":
        input_proj = DenseLayer.init(rep_dim, d_in, TANH, rng)
        blocks = [
            _ResidualBlock(
                DenseLayer.init(hidden_dim, rep_dim, TANH, rng),
                DenseLayer.init(rep_dim, hidden_dim, IDENTITY, rng),
            )
            for _ in range(depth)
        ]
        head = DenseLayer.init(n_classes, rep_dim, IDENTITY, rng)
        return cls(input_proj, blocks, head)

    @staticmethod
    def size(d_in: int, rep_dim: int, hidden_dim: int, depth: int, n_classes: int) -> int:
        """The parameter count of a teacher that ``build`` makes with these dimensions."""
        return ((d_in + 1) * rep_dim + depth * (2 * rep_dim * hidden_dim + hidden_dim + rep_dim)
                + (rep_dim + 1) * n_classes)

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def rep_dim(self) -> int:
        return self.input_proj.out_dim

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (final_rep, logits); keeps the stacked activations for backward."""
        x, squeeze = _input_rows(x, self.input_proj)
        self._x = self._stream = self._block_acts = self._proj = None  # free the last forward's first
        n, depth, rep = len(x), self.depth, self.rep_dim
        # stream[i] enters block i; acts[i] and proj[i] are its expand and project outputs,
        # which start as the biases: b + x W^T is x W^T + b, and adding same-shaped
        # arrays costs a fraction of a broadcast add
        hidden = self.blocks[0].expand.out_dim
        stream, acts, proj = np.empty((depth, n, rep)), np.empty((depth, n, hidden)), np.empty((depth, n, rep))
        np.copyto(acts, self._block_biases[0])
        np.copyto(proj, self._block_biases[1])
        xw_exp, xw_proj = np.empty((n, hidden)), np.empty((n, rep))
        h = _dense(x, self._input_t, self.input_proj.bias, self.input_proj.activation, stream[0])
        for i, (expand, expand_t, project, project_t) in enumerate(self._chain):
            a, p = acts[i], proj[i]
            a += np.dot(h, expand_t, out=xw_exp)
            if expand.activation == TANH:
                np.tanh(a, out=a)
            p += np.dot(a, project_t, out=xw_proj)
            if project.activation == TANH:
                np.tanh(p, out=p)
            h = np.add(h, p, out=stream[i + 1] if i + 1 < depth else None)
        logits = _dense(h, self._head_t, self.head.bias, self.head.activation)
        self._x, self._stream, self._block_acts, self._proj, self._final, self._logits = (
            x, stream, acts, proj, h, logits)
        if squeeze:
            return h[0], logits[0]
        return h, logits

    def backward(self, d_final_rep: np.ndarray | None, d_logits: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the last forward, laid out like ``flat``. The loop over blocks
        runs only the chain g -> d_f -> dz -> g; every block's parameter
        gradients are then written with four stacked calls."""
        if self._x is None:
            raise RuntimeError("backward called before forward")
        stream, acts, proj, head = self._stream, self._block_acts, self._proj, self.head
        n, rep = self._final.shape
        grad = np.empty_like(self.flat)
        d_proj, d_exp = np.empty_like(proj), np.empty_like(acts)
        g = d_proj[-1]  # block i's output gradient lands in d_proj[i], its project's dz if linear
        if d_logits is not None:
            dz, _, _ = _grads(head, self._final, self._logits, _rows(d_logits), *head.grad_views(grad))
            np.dot(dz, head.weight, out=g)
            if d_final_rep is not None:
                g += np.asarray(d_final_rep, dtype=np.float64)
        else:
            grad[head.span[0]:head.span[2]] = 0.0
            g[...] = 0.0 if d_final_rep is None else np.asarray(d_final_rep, dtype=np.float64)
        slope = acts * acts  # 1 - a^2 of every expand, for the tanh ones
        np.subtract(1.0, slope, out=slope)
        for i in reversed(range(self.depth)):
            expand, _, project, _ = self._chain[i]
            dz_proj, dz_exp = d_proj[i], d_exp[i]
            if project.activation == TANH:  # the residual path still needs g itself
                g = g.copy()
                slope_p = proj[i] * proj[i]
                np.subtract(1.0, slope_p, out=slope_p)
                dz_proj *= slope_p
            np.dot(dz_proj, project.weight, out=dz_exp)  # d_f
            if expand.activation == TANH:
                dz_exp *= slope[i]
            g_in = d_proj[i - 1] if i else np.empty((n, rep))
            np.dot(dz_exp, expand.weight, out=g_in)
            g_in += g  # residual path
            g = g_in
        w_exp, b_exp, w_proj, b_proj = self._block_views(grad)
        np.matmul(d_exp.transpose(0, 2, 1), stream, out=w_exp)
        np.add.reduce(d_exp, axis=1, out=b_exp)
        np.matmul(d_proj.transpose(0, 2, 1), acts, out=w_proj)
        np.add.reduce(d_proj, axis=1, out=b_proj)
        _grads(self.input_proj, self._x, stream[0], g, *self.input_proj.grad_views(grad))
        return grad

    def parameters(self) -> dict[str, np.ndarray]:
        return _views(self.flat, self.layout)

    def copy(self) -> "TeacherModel":
        return TeacherModel(self.input_proj.copy(), [b.copy() for b in self.blocks], self.head.copy())


class StudentModel:
    """Shallow dense network with a tapped mid-layer representation.

    ``depth`` layers of width rep_dim follow the input projection. The
    representation after layer ceil(depth/2) is exposed alongside the final
    one; both share the teacher's representation width. The layers share one
    shape, so backward writes all their weight gradients with one stacked call.
    """

    def __init__(self, input_proj: DenseLayer, layers: list[DenseLayer]):
        if len(layers) < 2:
            raise ValueError("student needs at least 2 layers")
        rep = input_proj.out_dim
        if any(layer.weight.shape != (rep, rep) for layer in layers):
            raise ValueError(f"student layers must all be {rep} x {rep}, got {[l.weight.shape for l in layers]}")
        self.input_proj = input_proj
        self.layers = layers
        self._x = None
        self.move_to(None)
        self._layer_views = _stack_views(layers[:1], len(layers))

    @classmethod
    def build(cls, d_in: int, rep_dim: int, depth: int, rng: np.random.Generator) -> "StudentModel":
        input_proj = DenseLayer.init(rep_dim, d_in, TANH, rng)
        layers = [DenseLayer.init(rep_dim, rep_dim, TANH, rng) for _ in range(depth)]
        return cls(input_proj, layers)

    @staticmethod
    def size(d_in: int, rep_dim: int, depth: int) -> int:
        """The parameter count of a student that ``build`` makes with these dimensions."""
        return (d_in + 1) * rep_dim + depth * (rep_dim + 1) * rep_dim

    def move_to(self, flat: np.ndarray | None) -> None:
        """Copy the parameters into ``flat`` (a new buffer when None, or a slice of a
        larger one) and view them there."""
        self.flat, self.layout = _home([("input_proj", self.input_proj),
                                        *((f"layers.{i}", l) for i, l in enumerate(self.layers))], flat)
        # transposed weight views of flat, for the forward chain
        self._chain = [(self.input_proj, self.input_proj.weight.T), *((l, l.weight.T) for l in self.layers)]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def mid_index(self) -> int:
        """1-based index of the tapped layer: ceil(depth / 2)."""
        return (self.depth + 1) // 2

    @property
    def rep_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (final_rep, mid_rep); keeps the stacked activations for backward."""
        x, squeeze = _input_rows(x, self.input_proj)
        self._x = self._stream = None  # free the last forward's first
        # stream[0] is the input projection's output, stream[i] layer i's
        h = x
        stream = np.empty((self.depth + 1, len(x), self.rep_dim))
        for i, (layer, weight_t) in enumerate(self._chain):
            h = _dense(h, weight_t, layer.bias, layer.activation, stream[i])
        self._x, self._stream = x, stream
        mid = stream[self.mid_index]
        if squeeze:
            return h[0], mid[0]
        return h, mid

    def backward(self, d_final_rep: np.ndarray | None, d_mid_rep: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the last forward, laid out like ``flat``; the layers' weight and
        bias gradients are written with one stacked call each."""
        if self._x is None:
            raise RuntimeError("backward called before forward")
        stream = self._stream
        grad = np.empty_like(self.flat)
        dz = stream[1:] * stream[1:]  # 1 - a^2 of every layer, for the tanh ones
        np.subtract(1.0, dz, out=dz)
        g = np.zeros(stream.shape[1:]) if d_final_rep is None else _rows(d_final_rep)
        mid_index = self.mid_index
        for i in reversed(range(1, self.depth + 1)):
            if i == mid_index and d_mid_rep is not None:
                g += np.asarray(d_mid_rep, dtype=np.float64)  # g is layer i + 1's fresh d_input
            layer = self.layers[i - 1]
            if layer.activation == TANH:
                dz[i - 1] *= g
            else:
                dz[i - 1] = g
            g = np.dot(dz[i - 1], layer.weight)
        weight, bias = self._layer_views(grad)
        np.matmul(dz.transpose(0, 2, 1), stream[:-1], out=weight)
        np.add.reduce(dz, axis=1, out=bias)
        _grads(self.input_proj, self._x, stream[0], g, *self.input_proj.grad_views(grad))
        return grad

    def parameters(self) -> dict[str, np.ndarray]:
        return _views(self.flat, self.layout)

    def copy(self) -> "StudentModel":
        return StudentModel(self.input_proj.copy(), [l.copy() for l in self.layers])


SGD = "sgd"
ADAM = "adam"
# Adam's moment decays and the floor under its denominator
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Optimizer:
    """SGD or Adam over a model's flat parameter buffer.

    ``step(model, grad)`` takes ``grad``, the float64 array laid out like
    ``model.flat``, rejects a non-finite one (naming the parameter from
    ``model.layout``) before any parameter is touched, then applies one
    elementwise update to ``model.flat`` in place. Adam's moments ``_m`` and
    ``_v`` are flat buffers shaped like the parameters and ``_u`` is a scratch
    buffer of the same shape. The step also uses ``grad`` as scratch, so it
    allocates nothing and leaves ``grad`` spent.
    """

    def __init__(self, kind: str = ADAM, learning_rate: float = 1e-3):
        if kind not in (SGD, ADAM):
            raise ValueError(f"unknown optimizer kind {kind!r}")
        if not (math.isfinite(learning_rate) and learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {learning_rate!r}")
        self.kind, self.learning_rate = kind, learning_rate
        self._m = self._v = self._u = None
        self._t = 0

    def step(self, model, grad: np.ndarray) -> None:
        params = model.flat
        if grad.shape != params.shape:
            raise ValueError(f"gradient holds {grad.size} values for {params.size} parameters")
        if not np.isfinite(grad).all():
            name = next(name for name, start, stop, _ in model.layout if not np.isfinite(grad[start:stop]).all())
            raise ValueError(f"non-finite gradient for {name!r}; parameters left unchanged")
        if self.kind == SGD:
            grad *= self.learning_rate
            params -= grad
        else:
            if self._m is None:
                self._m, self._v, self._u = np.zeros_like(params), np.zeros_like(params), np.empty_like(params)
            self._t += 1
            b1, b2, m, v, u = BETA1, BETA2, self._m, self._v, self._u
            # m = b1 m + (1 - b1) grad;  v = b2 v + (1 - b2) grad^2
            m *= b1
            np.multiply(grad, 1 - b1, out=u)
            m += u
            v *= b2
            np.multiply(grad, 1 - b2, out=u)
            u *= grad
            v += u
            # params -= lr m_hat / (sqrt(v_hat) + eps), with grad done with
            np.divide(v, 1 - b2**self._t, out=grad)
            np.sqrt(grad, out=grad)
            grad += EPS
            np.divide(m, 1 - b1**self._t, out=u)
            u *= self.learning_rate
            u /= grad
            params -= u


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    passed: bool
    worst_param: str = ""


def finite_diff_check(model, loss_fn, step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn(model)`` must return ``(loss, output_grads)`` where
    ``output_grads`` is the tuple of upstream gradients ``model.backward``
    accepts for that loss; ``model.layout`` names each parameter's slice of
    ``model.flat`` and of the gradient. The relative error per coordinate uses the
    denominator max(|analytic|, |numeric|, 1e-6) so near-zero pairs do not
    dominate the report.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    loss0, out_grads = loss_fn(model)
    if not np.isfinite(loss0):
        raise ValueError("loss is not finite")
    analytic = model.backward(*out_grads)
    worst = 0.0
    worst_name = ""
    for name, start, stop, _ in model.layout:
        flat, a_flat = model.flat[start:stop], analytic[start:stop]
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            lp, _ = loss_fn(model)
            flat[idx] = orig - step
            lm, _ = loss_fn(model)
            flat[idx] = orig
            numeric = (lp - lm) / (2 * step)
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise ValueError("loss is not finite under perturbation")
            denom = max(abs(a_flat[idx]), abs(numeric), 1e-6)
            rel = abs(a_flat[idx] - numeric) / denom
            if rel > worst:
                worst, worst_name = rel, f"{name}[{idx}]"
    # restore a clean cache for the caller
    loss_fn(model)
    return GradCheckReport(max_rel_err=worst, tol=tol, passed=worst <= tol, worst_param=worst_name)


# -- checkpoint file -------------------------------------------------------
#
# JSON whose arrays are little-endian float64 bytes, base64-encoded: a bit-exact
# round trip. Every file records "mode": "binary", and a reader refuses any other.

_SCHEMA = "dense-model-checkpoint-v1"
_MODE = "binary"


def _encode_array(arr: np.ndarray) -> str:
    return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")


def _decode_array(data, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(data), dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(arr).all():
        raise ValueError("checkpoint contains non-finite values")
    return arr


def _check_header(d, schema: str) -> None:
    found = d.get("schema") if isinstance(d, dict) else None
    if found != schema:
        raise ValueError(f"expected a {schema!r} checkpoint, got schema {found!r}")
    if d["mode"] != _MODE:
        raise ValueError(f"unknown checkpoint mode {d['mode']!r}")


def _layer_to_dict(layer: DenseLayer) -> dict:
    return {
        "out_dim": layer.out_dim,
        "in_dim": layer.in_dim,
        "activation": layer.activation,
        "weight": _encode_array(layer.weight),
        "bias": _encode_array(layer.bias),
    }


def _layer_from_dict(d: dict) -> DenseLayer:
    shape = (d["out_dim"], d["in_dim"])
    if not all(type(n) is int and n > 0 for n in shape):
        raise ValueError(f"layer dimensions must be positive integers, got {shape}")
    weight = _decode_array(d["weight"], shape)
    bias = _decode_array(d["bias"], (d["out_dim"],))
    return DenseLayer(weight, bias, d["activation"])


def model_to_dict(model: TeacherModel | StudentModel) -> dict:
    if isinstance(model, TeacherModel):
        body = {
            "kind": "teacher",
            "input_proj": _layer_to_dict(model.input_proj),
            "blocks": [
                {"expand": _layer_to_dict(b.expand), "project": _layer_to_dict(b.project)}
                for b in model.blocks
            ],
            "head": _layer_to_dict(model.head),
        }
    elif isinstance(model, StudentModel):
        body = {
            "kind": "student",
            "input_proj": _layer_to_dict(model.input_proj),
            "layers": [_layer_to_dict(l) for l in model.layers],
        }
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    return {"schema": _SCHEMA, "mode": _MODE, **body}


def model_from_dict(d: dict) -> TeacherModel | StudentModel:
    _check_header(d, _SCHEMA)
    if d["kind"] == "teacher":
        blocks = [
            _ResidualBlock(_layer_from_dict(b["expand"]), _layer_from_dict(b["project"]))
            for b in d["blocks"]
        ]
        return TeacherModel(_layer_from_dict(d["input_proj"]), blocks, _layer_from_dict(d["head"]))
    if d["kind"] == "student":
        layers = [_layer_from_dict(l) for l in d["layers"]]
        return StudentModel(_layer_from_dict(d["input_proj"]), layers)
    raise ValueError(f"unknown checkpoint kind {d['kind']!r}")


def write_json(path, obj) -> None:
    """Write a JSON artifact, as every one is written: indented by one space, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def save_model(model, path) -> None:
    write_json(path, model_to_dict(model))


def read_json(path, decode):
    """``decode`` of the JSON value in ``path``. A ValueError (a truncated file raises one), KeyError
    or TypeError raised while the file is read or decoded, or nesting deeper than the JSON decoder
    can recurse, becomes a ValueError naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError as exc:  # caught here only, so a recursion bug in decode still surfaces
                raise ValueError("JSON nested too deeply to decode") from exc
        return decode(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_model(path) -> TeacherModel | StudentModel:
    return read_json(path, model_from_dict)
