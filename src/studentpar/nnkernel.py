"""Minimal dense neural-network kernel.

Float64 throughout, deterministic given identical parameter and input
bytes. Expresses exactly two architectures: a deep residual teacher and a
shallow student whose mid-layer representation is tapped for distillation.
Each model keeps all of its parameters in one contiguous float64 buffer,
``model.flat``; every layer's weight and bias are views into it, and
``parameters()`` names those views. Gradients are exact reverse-mode and land
in one flat buffer laid out the same way, so an optimizer step is one
finiteness check and one vector update.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TANH = "tanh"
IDENTITY = "identity"

_ACTIVATIONS = (TANH, IDENTITY)


def _glorot_uniform(out_dim: int, in_dim: int, rng: np.random.Generator) -> np.ndarray:
    limit = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


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
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"input width {x.shape} does not match layer in_dim {self.in_dim}")
        out = np.dot(x, self.weight.T)
        out += self.bias
        if self.activation == TANH:
            np.tanh(out, out=out)
        self._x, self._a = x, out
        return out[0] if squeeze else out

    def backward(
        self, d_out: np.ndarray, dw: np.ndarray | None = None, db: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (d_input, d_weight, d_bias) for upstream gradient d_out.

        ``dw`` and ``db``, when given, are C-contiguous float64 buffers (views into
        a gradient tape, see ``tape_views``) that receive d_weight and d_bias.
        """
        if self._x is None:
            raise RuntimeError("backward called before forward")
        d_out = np.asarray(d_out, dtype=np.float64)
        if d_out.ndim == 1:
            d_out = d_out[None, :]
        if self.activation == TANH:
            dz = self._a * self._a  # d_out * (1 - a^2), in place
            np.subtract(1.0, dz, out=dz)
            dz *= d_out
        else:
            dz = d_out
        dw = np.dot(dz.T, self._x, out=dw)
        db = np.add.reduce(dz, axis=0, out=db)
        return np.dot(dz, self.weight), dw, db

    def tape_views(self, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """This layer's (weight, bias) slots in ``grad``, a flat buffer laid out like the model's."""
        w_start, b_start, stop = self.span
        return grad[w_start:b_start].reshape(self.weight.shape), grad[b_start:stop]

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weight.copy(), self.bias.copy(), self.activation)


def _home(layers: list[DenseLayer], flat: np.ndarray | None = None) -> np.ndarray:
    """Copy each layer's weight then bias, in order, into ``flat`` (a new buffer
    by default) and point the layer at those views."""
    if flat is None:
        flat = np.empty(sum(layer.weight.size + layer.bias.size for layer in layers))
    start = 0
    for layer in layers:
        w_stop = start + layer.weight.size
        stop = w_stop + layer.bias.size
        flat[start:w_stop] = layer.weight.reshape(-1)
        flat[w_stop:stop] = layer.bias
        layer.weight = flat[start:w_stop].reshape(layer.weight.shape)
        layer.bias = flat[w_stop:stop]
        layer.span = (start, w_stop, stop)
        start = stop
    return flat


def _layout(params: dict[str, np.ndarray], start: int = 0, prefix: str = "") -> list[tuple]:
    """(name, start, stop, shape) of each parameter, packed in order from ``start``."""
    out = []
    for name, arr in params.items():
        out.append((prefix + name, start, start + arr.size, arr.shape))
        start += arr.size
    return out


class TapeGradients:
    """Gradients in one flat float64 buffer, laid out like a model's parameters.

    ``layout`` lists (name, start, stop, shape) per parameter and ``grads``
    maps each name to its view into ``flat``.
    """

    def __init__(self, grads: dict[str, np.ndarray]):
        """Pack name -> array gradients into a fresh flat buffer."""
        self.layout = _layout(grads)
        self.flat = np.concatenate([np.asarray(arr, dtype=np.float64).reshape(-1) for arr in grads.values()])

    @classmethod
    def over(cls, flat: np.ndarray, layout: list[tuple]) -> "TapeGradients":
        """Wrap an existing flat gradient buffer, without copying it."""
        tape = cls.__new__(cls)
        tape.flat, tape.layout = flat, layout
        return tape

    @cached_property
    def grads(self) -> dict[str, np.ndarray]:
        return {name: self.flat[start:stop].reshape(shape) for name, start, stop, shape in self.layout}

    def zero_(self) -> None:
        self.flat[...] = 0.0


class _ResidualBlock:
    """One teacher block: h -> h + project(expand(h))."""

    def __init__(self, expand: DenseLayer, project: DenseLayer):
        self.expand = expand
        self.project = project

    def forward(self, h: np.ndarray) -> np.ndarray:
        return h + self.project.forward(self.expand.forward(h))

    def copy(self) -> "_ResidualBlock":
        return _ResidualBlock(self.expand.copy(), self.project.copy())


class TeacherModel:
    """Deep residual dense network with a classification head.

    The chain h_i = h_{i-1} + F_i(h_{i-1}) accumulates refinements on top of
    the projected input; the final representation is the stream after the
    last block, and the head maps it to class logits. Construction copies
    every layer's parameters into the model's flat buffer.
    """

    def __init__(self, input_proj: DenseLayer, blocks: list[_ResidualBlock], head: DenseLayer):
        self.input_proj = input_proj
        self.blocks = blocks
        self.head = head
        self._block_acts: list[np.ndarray] | None = None
        layers = [input_proj, *(l for b in blocks for l in (b.expand, b.project)), head]
        self.flat = _home(layers)
        self.layout = _layout(self.parameters())

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

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def rep_dim(self) -> int:
        return self.input_proj.out_dim

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (final_rep, logits); caches block activations for backward."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = self.input_proj.forward(x[None, :] if squeeze else x)
        acts = []
        for block in self.blocks:
            h = block.forward(h)
            acts.append(h)
        self._block_acts = acts
        logits = self.head.forward(h)
        if squeeze:
            return h[0], logits[0]
        return h, logits

    def backward(self, d_final_rep: np.ndarray | None, d_logits: np.ndarray | None = None) -> TapeGradients:
        if self._block_acts is None:
            raise RuntimeError("backward called before forward")
        grad = np.empty_like(self.flat)
        # g is this call's own array: the residual path accumulates into it in place
        if d_logits is not None:
            g, _, _ = self.head.backward(d_logits, *self.head.tape_views(grad))
            if d_final_rep is not None:
                g += np.asarray(d_final_rep, dtype=np.float64)
        else:
            grad[self.head.span[0]:self.head.span[2]] = 0.0
            if d_final_rep is not None:
                g = np.array(np.atleast_2d(d_final_rep), dtype=np.float64)
            elif self.blocks:
                g = np.zeros_like(self._block_acts[-1])
            else:
                g = np.zeros((1, self.rep_dim))
        for block in reversed(self.blocks):
            d_f, _, _ = block.project.backward(g, *block.project.tape_views(grad))
            d_h, _, _ = block.expand.backward(d_f, *block.expand.tape_views(grad))
            g += d_h  # residual path
        self.input_proj.backward(g, *self.input_proj.tape_views(grad))
        return TapeGradients.over(grad, self.layout)

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"input_proj.weight": self.input_proj.weight, "input_proj.bias": self.input_proj.bias}
        for i, block in enumerate(self.blocks):
            params[f"blocks.{i}.expand.weight"] = block.expand.weight
            params[f"blocks.{i}.expand.bias"] = block.expand.bias
            params[f"blocks.{i}.project.weight"] = block.project.weight
            params[f"blocks.{i}.project.bias"] = block.project.bias
        params["head.weight"] = self.head.weight
        params["head.bias"] = self.head.bias
        return params

    def copy(self) -> "TeacherModel":
        return TeacherModel(self.input_proj.copy(), [b.copy() for b in self.blocks], self.head.copy())


class StudentModel:
    """Shallow dense network with a tapped mid-layer representation.

    ``depth`` layers of width rep_dim follow the input projection. The
    representation after layer ceil(depth/2) is exposed alongside the final
    one; both share the teacher's representation width.
    """

    def __init__(self, input_proj: DenseLayer, layers: list[DenseLayer]):
        if len(layers) < 2:
            raise ValueError("student needs at least 2 layers")
        self.input_proj = input_proj
        self.layers = layers
        self.flat = _home([input_proj, *layers])
        self.layout = _layout(self.parameters())

    @classmethod
    def build(cls, d_in: int, rep_dim: int, depth: int, rng: np.random.Generator) -> "StudentModel":
        input_proj = DenseLayer.init(rep_dim, d_in, TANH, rng)
        layers = [DenseLayer.init(rep_dim, rep_dim, TANH, rng) for _ in range(depth)]
        return cls(input_proj, layers)

    def move_to(self, flat: np.ndarray) -> None:
        """Copy the parameters into ``flat`` (a new buffer, or a slice of a larger one) and view them there."""
        self.flat = _home([self.input_proj, *self.layers], flat)

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
        """Return (final_rep, mid_rep)."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = self.input_proj.forward(x[None, :] if squeeze else x)
        mid, mid_index = None, self.mid_index
        for i, layer in enumerate(self.layers, start=1):
            h = layer.forward(h)
            if i == mid_index:
                mid = h
        if squeeze:
            return h[0], mid[0]
        return h, mid

    def backward(self, d_final_rep: np.ndarray | None, d_mid_rep: np.ndarray | None = None) -> TapeGradients:
        if self.layers[-1]._x is None:
            raise RuntimeError("backward called before forward")
        grad = np.empty_like(self.flat)
        if d_final_rep is None:
            g = np.zeros((self.layers[-1]._x.shape[0], self.rep_dim))
        else:
            g = np.atleast_2d(np.asarray(d_final_rep, dtype=np.float64))
        mid_index = self.mid_index
        for i in reversed(range(1, self.depth + 1)):
            if i == mid_index and d_mid_rep is not None:
                g += np.asarray(d_mid_rep, dtype=np.float64)  # g is layer i + 1's fresh d_input
            layer = self.layers[i - 1]
            g, _, _ = layer.backward(g, *layer.tape_views(grad))
        self.input_proj.backward(g, *self.input_proj.tape_views(grad))
        return TapeGradients.over(grad, self.layout)

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"input_proj.weight": self.input_proj.weight, "input_proj.bias": self.input_proj.bias}
        for i, layer in enumerate(self.layers):
            params[f"layers.{i}.weight"] = layer.weight
            params[f"layers.{i}.bias"] = layer.bias
        return params

    def copy(self) -> "StudentModel":
        return StudentModel(self.input_proj.copy(), [l.copy() for l in self.layers])


SGD = "sgd"
ADAM = "adam"


@dataclass
class Optimizer:
    """SGD or Adam over a model's flat parameter buffer.

    ``step`` validates the tape (rejecting non-finite gradients, by name,
    before any parameter is touched), applies one elementwise update to
    ``model.flat`` in place, then clears the tape. Adam's moments are flat
    buffers shaped like the parameters; ``_u`` is a scratch buffer of the same
    shape, and the tape is scratch once read, so a step allocates nothing.
    """

    kind: str = ADAM
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _m: np.ndarray | None = field(default=None, repr=False)
    _v: np.ndarray | None = field(default=None, repr=False)
    _t: int = field(default=0, repr=False)
    _u: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in (SGD, ADAM):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    def step(self, model, grads: TapeGradients) -> None:
        params, g = model.flat, grads.flat
        if g.shape != params.shape:
            raise ValueError(f"gradient holds {g.size} values for {params.size} parameters")
        if not np.isfinite(g).all():
            name = next(name for name, start, stop, _ in grads.layout if not np.isfinite(g[start:stop]).all())
            raise ValueError(f"non-finite gradient for {name!r}; parameters left unchanged")
        if self.kind == SGD:
            g *= self.learning_rate
            params -= g
        else:
            if self._m is None:
                self._m, self._v, self._u = np.zeros_like(params), np.zeros_like(params), np.empty_like(params)
            self._t += 1
            b1, b2, m, v, u = self.beta1, self.beta2, self._m, self._v, self._u
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            m *= b1
            np.multiply(g, 1 - b1, out=u)
            m += u
            v *= b2
            np.multiply(g, 1 - b2, out=u)
            u *= g
            v += u
            # params -= lr m_hat / (sqrt(v_hat) + eps), with g done with
            np.divide(v, 1 - b2**self._t, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            np.divide(m, 1 - b1**self._t, out=u)
            u *= self.learning_rate
            u /= g
            params -= u
        grads.zero_()


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
    accepts for that loss. The relative error per coordinate uses the
    denominator max(|analytic|, |numeric|, 1e-6) so near-zero pairs do not
    dominate the report.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    loss0, out_grads = loss_fn(model)
    if not np.isfinite(loss0):
        raise ValueError("loss is not finite")
    analytic = model.backward(*out_grads)
    params = model.parameters()
    worst = 0.0
    worst_name = ""
    for name, arr in params.items():
        a_grad = analytic.grads[name]
        flat = arr.reshape(-1)
        a_flat = a_grad.reshape(-1)
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
# One JSON container for both modes. "binary" stores little-endian float64
# bytes base64-encoded (bit-exact round trip); "json" stores decimal lists
# (value-exact because json uses repr, the shortest round-trip form).

_SCHEMA = "dense-model-checkpoint-v1"


def _encode_array(arr: np.ndarray, mode: str):
    if mode == "binary":
        return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")
    return arr.tolist()


def _decode_array(data, shape: tuple[int, ...], mode: str) -> np.ndarray:
    if mode == "binary":
        arr = np.frombuffer(base64.b64decode(data), dtype="<f8").astype(np.float64)
    else:
        arr = np.asarray(data, dtype=np.float64)
    arr = arr.reshape(shape)
    if not np.isfinite(arr).all():
        raise ValueError("checkpoint contains non-finite values")
    return arr


def _layer_to_dict(layer: DenseLayer, mode: str) -> dict:
    return {
        "out_dim": layer.out_dim,
        "in_dim": layer.in_dim,
        "activation": layer.activation,
        "weight": _encode_array(layer.weight, mode),
        "bias": _encode_array(layer.bias, mode),
    }


def _layer_from_dict(d: dict, mode: str) -> DenseLayer:
    shape = (d["out_dim"], d["in_dim"])
    if not all(type(n) is int and n > 0 for n in shape):
        raise ValueError(f"layer dimensions must be positive integers, got {shape}")
    weight = _decode_array(d["weight"], shape, mode)
    bias = _decode_array(d["bias"], (d["out_dim"],), mode)
    return DenseLayer(weight, bias, d["activation"])


def model_to_dict(model: TeacherModel | StudentModel, mode: str = "binary") -> dict:
    if mode not in ("binary", "json"):
        raise ValueError(f"unknown checkpoint mode {mode!r}")
    if isinstance(model, TeacherModel):
        return {
            "schema": _SCHEMA,
            "mode": mode,
            "kind": "teacher",
            "input_proj": _layer_to_dict(model.input_proj, mode),
            "blocks": [
                {"expand": _layer_to_dict(b.expand, mode), "project": _layer_to_dict(b.project, mode)}
                for b in model.blocks
            ],
            "head": _layer_to_dict(model.head, mode),
        }
    if isinstance(model, StudentModel):
        return {
            "schema": _SCHEMA,
            "mode": mode,
            "kind": "student",
            "input_proj": _layer_to_dict(model.input_proj, mode),
            "layers": [_layer_to_dict(l, mode) for l in model.layers],
        }
    raise TypeError(f"cannot checkpoint {type(model).__name__}")


def model_from_dict(d: dict) -> TeacherModel | StudentModel:
    schema = d.get("schema") if isinstance(d, dict) else None
    if schema != _SCHEMA:
        raise ValueError(f"not a model checkpoint (schema {schema!r})")
    mode = d["mode"]
    if mode not in ("binary", "json"):
        raise ValueError(f"unknown checkpoint mode {mode!r}")
    if d["kind"] == "teacher":
        blocks = [
            _ResidualBlock(_layer_from_dict(b["expand"], mode), _layer_from_dict(b["project"], mode))
            for b in d["blocks"]
        ]
        return TeacherModel(_layer_from_dict(d["input_proj"], mode), blocks, _layer_from_dict(d["head"], mode))
    if d["kind"] == "student":
        layers = [_layer_from_dict(l, mode) for l in d["layers"]]
        return StudentModel(_layer_from_dict(d["input_proj"], mode), layers)
    raise ValueError(f"unknown checkpoint kind {d['kind']!r}")


def save_model(model, path, mode: str = "binary") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model, mode), fh, indent=1)
        fh.write("\n")


def load_model(path) -> TeacherModel | StudentModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
