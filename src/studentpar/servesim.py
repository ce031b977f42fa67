"""Deterministic discrete-event simulator of the student-parallel serving system.

One global dispatcher round-robins arrivals across nodes. Each node owns a
length-aware buffer (bounded FIFO of small same-length-bin batches) and a
number of student groups (``group_count``; the simulator models group counts
per node, not the placement of students on GPUs). Whenever a group is idle the
head buffer element is dispatched immediately. Service times come from the
calibrated analytic performance model. A controller drops one student per
group when a buffer fills (starting more groups) and adds one back after a
sustained idle window. A dynamic-batching baseline mode replaces immediate
dispatch with a waiting queue and full-length padding, for ablation runs.

In immediate mode an arriving request that finds its node's buffer empty and
a group free starts at once, as a one-request element that never enters the
buffer (the direct start). It is taken only where buffering the request
would leave the same state: the push, the controller tick, the pop and the
dispatch would all happen within this one event. That holds when no node has
deferred requests, no buffer is full (else the tick may drop a student and
sweep every node) and the buffer's capacity is above 1 (else the push fills
it and the controller drops a student). The event makes no controller tick:
the tick would see no full buffer, so it could not drop a student, and it
would see this node's buffer occupied, as the push leaves it, so it could not
add one back; holding changes nothing.

The simulated clock is real-valued milliseconds. Arrivals do not enter the
event heap: they are served from the workload stably sorted by arrival time,
and an arrival goes ahead of every heap event at the same time. Heap events
at equal times run in the order they were pushed, so identical inputs give
identical outputs. From 2**53 ms in magnitude on, a float millisecond has no
integer resolution: an arrival at or below -2**53 ms, or a clock that reaches
2**53 ms, raises FloatingPointError.

Each event touches only the nodes whose state it can change: its own node
(none for a heartbeat), every node with deferred requests waiting to retry
and, in waiting-queue mode, every node with a non-empty buffer, since its
head can become dispatchable by time alone. Touched nodes are visited in
ascending index, which fixes the order completion events enter the heap.
All nodes are swept only when the student count k changes, because every
buffer's capacity changes with it. The controller's drop test reads counts
of full and of non-empty buffers, kept exact wherever a buffer changes; its
add-back test, reached only once every buffer is empty past the idle window,
sums idle and busy groups over every node. The idle window runs on one
cluster-wide clock: the time at which, at the end of an event, no buffer
held an element any more, or the last time it added a student back.

A workload is three numpy columns, one row per request, and inside the run a
request is its row index from arrival to completion: buffer elements, retry
queues and completion events hold rows, and a push or a direct start reads the
row's length from the workload. A completion appends its rows to one flat array
and its time and size to two more, by which the metrics gather the columns.
"""

from __future__ import annotations

import csv
import heapq
import math
import warnings
from array import array
from bisect import bisect_right
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .distill import AccuracyTable, _is_finite_number, check_counts, check_finite, check_positive
from .nnkernel import write_json
from .perfmodel import DEFAULT_CAPACITY, DEFAULT_GATHER_MS, DEFAULT_PCIE_TOKENS_PER_MS, PerfFactors, PerfModel
from .seeding import rng_for


class Request(NamedTuple):
    id: int
    arrival_ms: float
    length_tokens: int


@dataclass(frozen=True, eq=False)
class Workload:
    """A workload as int64 ids and lengths and float64 arrival times, one row per request:
    the input twin of ``LatencyColumns``. ``len`` is its request count."""

    request_id: np.ndarray
    arrival_ms: np.ndarray
    length_tokens: np.ndarray

    def __post_init__(self):
        columns = (self.request_id, self.arrival_ms, self.length_tokens)
        if not (all(isinstance(c, np.ndarray) and c.ndim == 1 and len(c) == len(self.request_id) for c in columns)
                and self.request_id.dtype == self.length_tokens.dtype == np.int64
                and self.arrival_ms.dtype == np.float64):
            raise ValueError("a workload is three 1-D columns of one length: int64 request_id, "
                             "float64 arrival_ms and int64 length_tokens")

    def __len__(self) -> int:
        return len(self.request_id)

    @classmethod
    def from_requests(cls, requests) -> Workload:
        """The rows ``(id, arrival_ms, length_tokens)``, such as ``Request``s, in their order. An id or
        length that is not an int, or an arrival that is not an int or a float, raises ValueError, as
        does a bool or a row of another width; an id or length outside int64 raises OverflowError."""
        ids, arrivals, lengths = tuple(zip(*requests, strict=True)) or ((), (), ())
        if not (all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in ids + lengths)
                and all(isinstance(t, (int, float, np.integer, np.floating)) and not isinstance(t, bool)
                        for t in arrivals)):
            raise ValueError("a workload row is an int id, an int or float arrival_ms and an int length_tokens")
        return cls(np.array(ids, np.int64), np.array(arrivals, np.float64), np.array(lengths, np.int64))

    @classmethod
    def concatenate(cls, parts) -> Workload:
        """The rows of ``parts``, one workload after another."""
        return cls(*(np.concatenate(column) for column in zip(
            *((part.request_id, part.arrival_ms, part.length_tokens) for part in parts))))

    def requests(self) -> list[Request]:
        """The rows as ``Request``s of Python ints and floats."""
        return list(map(Request._make, zip(self.request_id.tolist(), self.arrival_ms.tolist(),
                                           self.length_tokens.tolist())))


# the most requests a Poisson workload may expect, rps * duration_ms / 1000 summed
# over its phases; every request is held in memory. 125 times serve-fanout's
# 80,000 (32k rps for 2.5 s) and 145 times the stock simulate config's 69,000
MAX_EXPECTED_REQUESTS = 10_000_000


@dataclass(frozen=True)
class PoissonSpec:
    """Synthetic open-loop workload: Poisson arrivals, histogram lengths."""

    rps: float
    duration_ms: float
    length_weights: tuple[float, ...] | list[float] | None = None  # one weight per length bin

    def __post_init__(self):
        check_positive(self, ("rps",))
        check_finite(self, {"duration_ms": 0})
        weights = self.length_weights  # none or an empty list: the default weights
        if weights is not None and not (isinstance(weights, (list, tuple)) and (
                not weights or all(map(_is_finite_number, weights)) and min(weights) >= 0
                and 0 < np.asarray(weights, dtype=np.float64).sum() < math.inf)):
            raise ValueError("length_weights must be a list of finite, non-negative numbers "
                             f"with a positive sum, got {weights!r}")


@dataclass(frozen=True)
class TraceFile:
    path: str
    scale: float = 1.0


DEFAULT_LENGTH_WEIGHTS = (1.0, 2.0, 3.0, 3.0, 2.0, 1.5, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1)


def _uint32_words(bit_generator):
    """PCG64's 32-bit stream: the low, then the high half of each raw 64-bit word,
    starting with the half the generator holds back, if any. ``random_raw`` and
    ``standard_exponential`` take whole 64-bit words and leave that half alone,
    so they may be drawn in between."""
    state = bit_generator.state
    if state["has_uint32"]:
        yield state["uinteger"]
    raw = bit_generator.random_raw
    while True:
        word = raw()
        yield word & 0xFFFFFFFF
        yield word >> 32


def generate_workload(kind, seed: int, max_len: int = 128, bin_width: int = 8, *,
                      offset_ms: float = 0.0, first_id: int = 0) -> Workload:
    """An arrival-sorted workload, deterministic per seed.

    A Poisson workload draws the first arrival gap, then per request its
    length bin, its length within the bin and the gap to the next arrival.
    The bin is one uniform searched in the weights' normalised CDF, the same
    draw as ``Generator.choice(n_bins, p=weights / weights.sum())``. The
    length is Lemire's bounded draw on the next 32-bit word, the same draw
    as ``Generator.integers(lo, lo + bin_width)``, which draws nothing for a
    width of 1 and would switch to 64-bit words above 2**32.

    A Poisson workload may be one phase of a longer run: request ``i`` of
    the draw gets id ``first_id + i`` and arrives at ``offset_ms`` plus its
    drawn time, so phases drawn one after another and concatenated need no
    renumbering. A trace keeps its own times and numbers from 0.
    """
    if isinstance(kind, PoissonSpec):
        if not 1 <= bin_width <= 1 << 32:
            raise ValueError(f"bin_width must lie in [1, 2**32], got {bin_width!r}")
        rng = rng_for(seed, "workload")
        weights = np.asarray(kind.length_weights or DEFAULT_LENGTH_WEIGHTS, dtype=np.float64)
        total = weights.sum()
        if len(weights) * bin_width > max_len:
            raise ValueError("length_weights cover more than max_len tokens")
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
        duration_ms, scale = kind.duration_ms, 1000.0 / kind.rps
        # scale * standard_exponential() is exponential(scale), and the top 53 bits of
        # a raw word times 2**-53 are PCG64's next_double, so random(), bit for bit
        std_exponential, raw = rng.standard_exponential, rng.bit_generator.random_raw
        next_word = _uint32_words(rng.bit_generator).__next__
        reject_below = (1 << 32) % bin_width  # Lemire's threshold (2**32 - w) mod w
        times, lengths = array("d"), array("q")
        add_time, add_length = times.append, lengths.append
        t = scale * std_exponential()
        while t <= duration_ms:
            length = bisect_right(cdf, (raw() >> 11) * 2.0**-53) * bin_width + 1
            if bin_width > 1:
                m = next_word() * bin_width
                while m & 0xFFFFFFFF < reject_below:
                    m = next_word() * bin_width
                length += m >> 32
            add_time(t + offset_ms)
            add_length(length)
            t += scale * std_exponential()
        return Workload(np.arange(first_id, first_id + len(times), dtype=np.int64),
                        np.array(times, np.float64), np.array(lengths, np.int64))
    if isinstance(kind, TraceFile):
        check_positive(kind, ("scale",))
        with open(kind.path, "rb") as fh:
            head, _, body = fh.read().partition(b"\n")
        ends = np.flatnonzero(np.frombuffer(body, np.uint8) == 10)  # of the lines after the header
        # numpy's C reader takes rows of digits, signs, points, exponents, commas and blanks, with no
        # \r outside \r\n and no line past csv's field limit: float() and int() read those alike. Its
        # rows stand if it skipped no (blank) line and they pass the loop's checks
        if (head in (b"arrival_ms,length_tokens", b"arrival_ms,length_tokens\r")
                and not body.translate(None, b"0123456789+-.eE, \t\r\n")
                and body.count(b"\r") == body.count(b"\r\n")
                and np.diff(ends, prepend=-1, append=len(body)).max() <= csv.field_size_limit()):
            with suppress(ValueError, Warning), warnings.catch_warnings():  # else the loop decides
                warnings.simplefilter("error")  # no rows, t * scale overflowing, older numpy taking 5.0 as 5
                rows = np.loadtxt(kind.path, delimiter=",", skiprows=1, comments=None, quotechar=None,
                                  dtype=[("t", "f8"), ("l", "i8")], ndmin=1)
                t, lengths, scaled = rows["t"], rows["l"], rows["t"] * kind.scale
                if (len(rows) == len(ends) + (not body.endswith(b"\n")) and np.isfinite(scaled).all()
                        and (t[1:] >= t[:-1]).all() and (lengths >= 1).all()):
                    # a copy of the lengths, as a view would keep the parsed rows alive
                    return Workload(np.arange(len(rows), dtype=np.int64), scaled, lengths.copy())
        times, lengths = array("d"), array("q")
        with open(kind.path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header != ["arrival_ms", "length_tokens"]:
                    raise ValueError(f"trace line 1: expected header arrival_ms,length_tokens, got {header}")
                last_t = -math.inf
                for lineno, row in enumerate(reader, start=2):
                    try:
                        t, length = float(row[0]), int(row[1])
                    except (ValueError, IndexError) as exc:
                        raise ValueError(f"trace line {lineno}: malformed row {row!r}") from exc
                    if not math.isfinite(t):
                        raise ValueError(f"trace line {lineno}: arrival_ms must be finite, got {row[0]!r}")
                    if not math.isfinite(t * kind.scale):
                        raise ValueError(f"trace line {lineno}: arrival_ms times scale must be finite, "
                                         f"got {row[0]!r} * {kind.scale!r}")
                    if t < last_t:
                        raise ValueError(f"trace line {lineno}: arrival times must be nondecreasing")
                    if not 1 <= length < 2**63:  # an int64, as the latency columns hold it
                        raise ValueError(f"trace line {lineno}: length must lie in [1, 2**63 - 1], got {row[1]!r}")
                    last_t = t
                    times.append(t * kind.scale)
                    lengths.append(length)
            except csv.Error as exc:  # a field past csv.field_size_limit(), say
                raise ValueError(f"trace line {reader.line_num}: {exc}") from exc
        return Workload(np.arange(len(times), dtype=np.int64), np.array(times, np.float64),
                        np.array(lengths, np.int64))
    raise TypeError(f"unknown workload kind {type(kind).__name__}")


# -- length-aware buffer -------------------------------------------------------

MERGED = "merged"
APPENDED = "appended"
REJECTED = "rejected"


@dataclass(slots=True)
class BufferElement:
    """Up to max_merge requests, as workload rows, sharing one length bin, padded to its upper edge."""

    bin: int
    padded_len: int
    rows: list[int] = field(default_factory=list)
    created_ms: float = 0.0

    @property
    def size(self) -> int:
        return len(self.rows)


class LengthAwareBuffer:
    """Bounded FIFO of buffer elements with an O(1) bin index.

    ``index`` maps a length bin to its unique open (non-full) element, if
    any; entries are removed the moment an element fills or leaves the
    FIFO, so every push and pop touches a constant number of elements.
    """

    def __init__(self, num_bins: int, bin_width: int, max_merge: int, capacity: int,
                 pad_to_max: bool = False):
        if min(num_bins, bin_width, max_merge, capacity) < 1:
            raise ValueError("buffer dimensions must be >= 1")
        self.num_bins = num_bins
        self.bin_width = bin_width
        self.max_len = num_bins * bin_width
        self.max_merge = max_merge
        self.capacity = capacity
        self.pad_to_max = pad_to_max
        self.fifo: deque[BufferElement] = deque()
        self.index: dict[int, BufferElement] = {}

    def __len__(self) -> int:
        return len(self.fifo)

    def is_full(self) -> bool:
        return len(self.fifo) >= self.capacity

    def bin_of(self, length: int) -> int:
        if length < 1:
            raise ValueError("length must be >= 1")
        length = min(length, self.max_len)  # longer samples are clipped
        return (length + self.bin_width - 1) // self.bin_width - 1

    def push_bin(self, length: int) -> int:
        """The bin a push files a length in; bin_of refuses a length below 1 in both padding modes."""
        return self.num_bins - 1 if self.pad_to_max and length >= 1 else self.bin_of(length)

    def push(self, row: int, length: int, now_ms: float = 0.0) -> str:
        b = self.push_bin(length)
        el = self.index.get(b)
        if el is not None:
            rows = el.rows
            rows.append(row)
            if len(rows) >= self.max_merge:
                del self.index[b]
            return MERGED
        if self.is_full():
            return REJECTED
        el = BufferElement(b, (b + 1) * self.bin_width, [row], now_ms)
        self.fifo.append(el)
        if self.max_merge > 1:  # a size-1 element is already full when max_merge == 1
            self.index[b] = el
        return APPENDED

    def pop(self) -> BufferElement:
        if not self.fifo:
            raise IndexError("pop from empty buffer")
        el = self.fifo.popleft()
        if self.index.get(el.bin) is el:
            del self.index[el.bin]
        return el


# -- group counts and configuration --------------------------------------------


def group_count(group_size: int, gpus: int, replicas_per_gpu: int) -> int:
    """Replica groups a node can host: floor(replicas * G / S), at least 1."""
    return max(1, (replicas_per_gpu * gpus) // group_size)


@dataclass
class ControllerConfig:
    max_students: int
    accuracy_table: AccuracyTable
    min_students: int = 1
    idle_window_ms: float = 120_000.0  # sustained-idle window before adding a student back

    def __post_init__(self):
        check_counts(self, {"min_students": 1, "max_students": 1})
        if not 1 <= self.min_students <= self.max_students:
            raise ValueError("need 1 <= min_students <= max_students")
        check_finite(self, {"idle_window_ms": 0})  # an endless window would beat forever
        if len(self.accuracy_table) < self.max_students:
            raise ValueError("accuracy_table must cover 1..max_students")


# the most nodes a cluster may have; each holds its own buffer, and a change of k
# sweeps them all. 128 times serve-fanout's 32 and 64 times perfbench's largest
# --scan-nodes run
MAX_NODES = 4096


@dataclass
class ClusterConfig:
    controller: ControllerConfig
    nodes: int = 1
    gpus_per_node: int = 4
    group_size: int = 3           # students per group at start
    replicas_per_gpu: int = 3     # simulated MPS slots per GPU
    bin_width: int = 8
    num_bins: int = 16
    max_merge: int = 4
    pad_to_max: bool = False           # baseline ablation: pad every sample to max_len
    batch_timeout_ms: float | None = None  # baseline ablation: waiting-queue dispatch

    def __post_init__(self):
        check_counts(self, dict.fromkeys(("nodes", "gpus_per_node", "group_size", "replicas_per_gpu",
                                                "bin_width", "num_bins", "max_merge"), 1))
        if self.nodes > MAX_NODES:
            raise ValueError(f"nodes must be <= {MAX_NODES}, got {self.nodes}")
        if not isinstance(self.pad_to_max, bool):
            raise ValueError(f"pad_to_max must be true or false, got {self.pad_to_max!r}")
        if not self.controller.min_students <= self.group_size <= self.controller.max_students:
            raise ValueError("group_size must lie within the controller's [min, max] range")
        if self.batch_timeout_ms is not None:
            check_finite(self, {"batch_timeout_ms": 0})  # an endless timeout never dispatches a part-filled element

    @property
    def max_len(self) -> int:
        """Longest sample length in tokens; longer samples are clipped."""
        return self.num_bins * self.bin_width


@dataclass
class ServiceFactors:
    """Calibrated performance model plus the per-student factor constants."""

    model: PerfModel
    depth: int = 2
    width_per_student: int = 256
    capacity: float = DEFAULT_CAPACITY
    pcie_tokens_per_ms: float = DEFAULT_PCIE_TOKENS_PER_MS
    gather_ms: float = DEFAULT_GATHER_MS

    def __post_init__(self):
        check_counts(self, {"depth": 1, "width_per_student": 1})
        check_positive(self, ("capacity", "pcie_tokens_per_ms"))
        check_finite(self, {"gather_ms": 0})


def service_time(element: BufferElement, k_students: int, cfg: ClusterConfig,
                 factors: ServiceFactors, active_groups: int = 1) -> float:
    """Inference time of one buffer element on a group of k students.

    No waiting term: queueing is simulated, not modeled. The gather cost
    applies only when the group actually spans GPUs.
    """
    spans = k_students > 1 and cfg.gpus_per_node > 1
    f = PerfFactors(
        depth=factors.depth,
        width=factors.width_per_student * k_students,
        batch=element.size,
        seq_len=element.padded_len,
        parallel_models=max(1, active_groups),
        gpus=cfg.gpus_per_node,
        capacity=factors.capacity,
        pcie_tokens_per_ms=factors.pcie_tokens_per_ms,
        gather_ms=factors.gather_ms if spans else 0.0,
        wait_model=None,
    )
    return factors.model.latency(f)


# -- controller ------------------------------------------------------------------

DROP_ONE = "drop_one"
ADD_ONE = "add_one"
HOLD = "hold"


class LatencyColumns(NamedTuple):
    """Per-request results as int64 ids and lengths and float64 times: ``latencies.csv`` less its latency."""

    request_id: np.ndarray
    arrival_ms: np.ndarray
    completion_ms: np.ndarray
    length_tokens: np.ndarray


@dataclass
class SimMetrics:
    """A run's results. Every field but ``columns`` is a key of ``metrics.json``, in this order;
    times and accuracies are floats, or None where the run has nothing to measure."""

    avg_latency_ms: float | None
    p95_latency_ms: float | None
    throughput_per_gpu: float | None
    completed: int
    generated: int
    deferred: int                 # arrivals deferred: their buffer was full, or deferred requests were ahead
    direct_starts: int            # requests started without entering a buffer
    dispatches: int               # buffer elements popped and started
    requests_per_dispatch: float | None  # requests per popped element; direct starts are not dispatches
    # nearest-rank p50 and p95 and the max of the buffered elements' waits
    buffer_wait_p50_ms: float | None
    buffer_wait_p95_ms: float | None
    buffer_wait_max_ms: float | None
    max_buffer_occupancy: int     # the most elements one buffer held
    student_number_timeline: list[tuple[float, int]]
    accuracy_timeline: list[tuple[float, float]]
    columns: LatencyColumns = field(repr=False)  # by arrival, ties by id, whole-key ties in completion order


def nearest_rank(ordered: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sorted array: its ceil(pct/100 * n)-th smallest value."""
    return float(ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1])


def _json_value(x):
    if isinstance(x, float):
        return round(x, 6)
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    return x


def metrics_to_json_dict(m: SimMetrics) -> dict:
    """The fields of ``m`` but ``columns``: floats rounded to six decimals, tuples written as lists."""
    return {f.name: _json_value(getattr(m, f.name)) for f in fields(m) if f.name != "columns"}


def write_metrics_json(m: SimMetrics, path) -> None:
    write_json(path, metrics_to_json_dict(m))


LATENCY_CSV_CHUNK = 4096  # rows formatted per write: few numpy calls, a flat peak in memory
# "000".."999" and the same with leading zeros as 0, but "0" alone; built by broadcasting, with
# no arithmetic, so that importing the module touches no integer-division code of numpy's
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS = np.empty((10, 10, 10, 3), np.uint8)
_DIGITS[..., 0] = _DIGIT[:, None, None]
_DIGITS[..., 1] = _DIGIT[:, None]
_DIGITS[..., 2] = _DIGIT
_DIGITS = _DIGITS.reshape(1000, 3)
_LEADING = _DIGITS.copy()
_LEADING[:100, 0] = _LEADING[:10, 1] = 0
# a row is written as 4-byte cells whose 0 bytes are pad, then dropped. A group of three digits is
# the cell of kind * 1000 + its value, by kind: 0 every digit, 1 a number's first group, 2 a group
# left of a number, all pad, 3 a fraction's first group after the point, 4 and 5 as 0 and 1 with
# the comma that ends a field. A minus sign and a line end have a cell each
_CELLS = np.zeros((6002, 4), np.uint8)
_CELLS[0:1000, :3] = _CELLS[4000:5000, :3] = _DIGITS
_CELLS[1000:2000, :3] = _CELLS[5000:6000, :3] = _LEADING
_CELLS[3000:4000, 0], _CELLS[3000:4000, 1:] = ord("."), _DIGITS
_CELLS[4000:6000, 3] = ord(",")
_CELLS[6000:] = np.frombuffer(b"\0\0\0-\0\0\r\n", np.uint8).reshape(2, 4)
_CELLS = _CELLS.view(np.uint32).ravel()
_NO_SIGN, _POINT, _COMMA, _MINUS, _CRLF = 2000, 3000, 4000, 6000, 6001


def _int_cells(cells: list, magnitude: np.ndarray, negative: np.ndarray, end: int) -> None:
    """Append the cells of the decimal integers of uint64 magnitudes and their signs: as many
    3-digit groups as the largest needs, the last one ending in ``_COMMA`` or nothing (0)."""
    if negative.any():
        cells.append(np.where(negative, _MINUS, _NO_SIGN))
    groups = []
    rest = magnitude
    for _ in range(-(-len(str(int(magnitude.max()))) // 3)):  # from the last group
        high = rest // 1000
        kind = (high == 0).astype(np.uint64)
        if groups:
            kind += kind.astype(bool) & (rest == 0)
        groups.append(kind * 1000 + (rest - high * 1000))
        rest = high
    groups[0] += end
    cells += reversed(groups)


def _fixed6_cells(cells: list, x: np.ndarray) -> None:
    """Append the cells of ``%.6f`` of float64 values below 2**63 in magnitude, and a comma.

    |x| is split into ``floor(|x|)`` and its fraction f, both exact. The product
    f * 10**6 is rounded to p and p to an integer, half-even. Where p is a tie, the
    exact product may not be: there Dekker's two-product with a Veltkamp split of f
    gives the exact error e of p (10**6 needs no split: it has 14 significant bits),
    and e says which way the product lies. A fraction that rounds up to 10**6
    carries into the integer part."""
    magnitude = np.abs(x)
    whole = np.floor(magnitude)
    f = magnitude - whole
    p = f * 1e6
    micros = np.rint(p)
    d = p - micros  # exact: |d| <= 0.5, and both are multiples of p's last place
    ties = np.flatnonzero(np.abs(d) == 0.5)
    if len(ties):
        f, p, d = f[ties], p[ties], d[ties]
        split = f * 134217729.0  # 2**27 + 1
        high = split - (split - f)
        e = (high * 1e6 - p) + (f - high) * 1e6  # p + e == f * 10**6 exactly
        micros[ties] += np.sign(d) * (e * d > 0)
    carry = micros == 1e6
    micros[carry] = 0.0
    _int_cells(cells, whole.astype(np.uint64) + carry, np.signbit(x), 0)
    thousands = np.floor(micros / 1000.0)  # exact: micros is an integer below 10**6
    cells += (thousands + _POINT, micros - thousands * 1000.0 + _COMMA)


def _int64_cells(cells: list, values: np.ndarray, end: int) -> None:
    """Append the cells of ``%d`` of int64 values."""
    negative = values < 0
    magnitude = values.view(np.uint64)
    _int_cells(cells, np.where(negative, -magnitude, magnitude), negative, end)


def write_latency_csv(columns: LatencyColumns, path) -> None:
    """The bytes ``csv.writer`` would write (CRLF line ends, nothing needs quoting) of the rows
    ``%d,%.6f,%.6f,%.6f,%d`` of id, arrival, completion, latency and length.

    Each chunk of rows is formatted in numpy as a matrix of cells, looked up in one table, whose
    pad bytes are then dropped. That formatting is proven exact for int64 ids and lengths and
    for times below 2**63 in magnitude; other columns raise ValueError before the file opens."""
    ids, arrival, completion, lengths = columns
    if not (ids.dtype == lengths.dtype == np.int64
            and all((np.abs(t) < 2.0**63).all() for t in (arrival, completion, completion - arrival))):
        raise ValueError("latencies.csv takes int64 ids and lengths, and times below 2**63 ms in magnitude")
    with open(path, "wb") as fh:
        fh.write(b"request_id,arrival_ms,completion_ms,latency_ms,length_tokens\r\n")
        for start in range(0, len(columns.request_id), LATENCY_CSV_CHUNK):
            chunk = slice(start, start + LATENCY_CSV_CHUNK)
            ids, arrival, completion, lengths = (column[chunk] for column in columns)
            times = (arrival, completion, completion - arrival)
            cells: list = []
            _int64_cells(cells, ids, _COMMA)
            for t in times:
                _fixed6_cells(cells, t)
            _int64_cells(cells, lengths, 0)
            cells.append(_CRLF)
            index = np.empty((len(ids), len(cells)), np.intp)
            for i, cell in enumerate(cells):
                index[:, i] = cell
            fh.write(_CELLS.take(index).tobytes().translate(None, b"\0"))


class _Node:
    def __init__(self, index: int, buffer: LengthAwareBuffer):
        self.index = index
        self.buffer = buffer
        self.retry: deque[int] = deque()  # deferred rows, oldest first
        self.busy = 0


_COMPLETION, _TIMER, _HEARTBEAT = "completion", "timer", "heartbeat"
HEARTBEAT_MS = 100.0
CLOCK_LIMIT_MS = 2.0**53  # from here on, a float millisecond has no integer resolution


def _clock_error(t: float) -> FloatingPointError:
    return FloatingPointError(f"the simulated clock reaches {t!r} ms, outside (-2**53, 2**53) ms, where "
                              "heartbeats and service times no longer add exactly")


class Simulation:
    """Event loop state; use run_simulation unless you need to poke internals."""

    # every attribute, so that instances hold no dict: past 30 keys, CPython 3.11 stops sharing
    # an instance dict's keys, and each attribute read in the event loop gets slower
    __slots__ = ("cfg", "factors", "ctl", "max_merge", "batch_timeout_ms", "k", "groups", "nodes",
                 "full_buffers", "nonempty", "retrying", "buffered", "last_empty", "workload",
                 "arrival_times", "arrival_rows", "lengths", "events", "_seq", "finished", "finish_ms",
                 "finish_sizes", "element_waits", "deferred", "direct_starts", "max_occupancy",
                 "padded_lens", "service_ms", "k_timeline", "last_event_ms")

    def __init__(self, cluster: ClusterConfig, workload: Workload, factors: ServiceFactors):
        if factors.model.t_unit is None:
            raise RuntimeError("perf model must be calibrated before simulation")
        if not np.isfinite(workload.arrival_ms).all():
            raise ValueError("every arrival_ms must be finite")  # else the event loop never ends
        self.cfg = cluster
        self.factors = factors
        # read once: every event consults them
        self.ctl = cluster.controller
        self.max_merge = cluster.max_merge
        self.batch_timeout_ms = cluster.batch_timeout_ms
        self.k = cluster.group_size
        self.groups = group_count(self.k, cluster.gpus_per_node, cluster.replicas_per_gpu)
        self.nodes = [
            _Node(i, LengthAwareBuffer(cluster.num_bins, cluster.bin_width, cluster.max_merge,
                                       capacity=self.groups, pad_to_max=cluster.pad_to_max))
            for i in range(cluster.nodes)
        ]
        # aggregate counters, exact at every event; see _check_invariants
        self.full_buffers = 0
        self.nonempty: set[int] = set()   # indices of nodes with a non-empty buffer
        self.retrying: set[int] = set()   # indices of nodes with deferred requests
        self.buffered = False             # whether any buffer held an element at the last boundary's end
        self.last_empty = 0.0             # when the cluster last turned idle, or the last ADD_ONE
        # arrivals stay out of the heap: the rows stably sorted by time, reversed so the next is
        # popped off the end, and their times. Nodes round-robin in workload order: row i goes to
        # node i mod the node count
        self.workload = workload
        order = np.argsort(workload.arrival_ms, kind="stable")[::-1]
        self.arrival_rows: list[int] = order.tolist()
        self.arrival_times: list[float] = workload.arrival_ms[order].tolist()
        del order  # before the lengths are listed, to keep the peak in memory low
        if self.arrival_times and self.arrival_times[-1] <= -CLOCK_LIMIT_MS:
            raise _clock_error(self.arrival_times[-1])
        self.lengths: list[int] = workload.length_tokens.tolist()
        self.events: list[tuple[float, int, str, object]] = []
        self._seq = 0
        # each completion's rows, time and size, in completion order
        self.finished = array("q")
        self.finish_ms = array("d")
        self.finish_sizes: list[int] = []
        self.element_waits = array("d")  # buffer residence per started element, 0 for a direct start
        self.deferred = 0
        self.direct_starts = 0
        self.max_occupancy = 0
        # the padded length of each length in the workload, as a push pads it: a direct
        # start reads it here
        push_bin = self.nodes[0].buffer.push_bin
        self.padded_lens = {n: (push_bin(n) + 1) * cluster.bin_width for n in set(self.lengths)}
        # service_time is a pure function of (k, size, padded_len, active groups) for
        # this cluster and these factors, so each distinct dispatch shape is modelled once
        self.service_ms: dict[tuple[int, int, int, int], float] = {}
        self.k_timeline: list[tuple[float, int]] = [(0.0, self.k)]
        # time of the latest completion or timer, read only by a heartbeat once no event or arrival
        # remains: by then each arrival's completion, at or after the arrival, has written it
        self.last_event_ms = 0.0
        self._push_event(0.0, _HEARTBEAT, None)

    def _push_event(self, t: float, kind: str, payload) -> None:
        heapq.heappush(self.events, (t, self._seq, kind, payload))
        self._seq += 1

    # -- helpers ---------------------------------------------------------

    def _set_k(self, new_k: int, now: float) -> None:
        self.k = new_k
        self.groups = group_count(new_k, self.cfg.gpus_per_node, self.cfg.replicas_per_gpu)
        for node in self.nodes:
            node.buffer.capacity = self.groups
        self.full_buffers = sum(len(node.buffer) >= self.groups for node in self.nodes)
        self.k_timeline.append((now, new_k))

    def _head_dispatchable(self, node: _Node, now: float) -> bool:
        """Waiting-queue mode: the head element is full or has waited out the timeout.
        It is due at its own timer at the latest, where far from 0 ms ``now - created_ms``
        can round below the timeout less the tolerance."""
        el = node.buffer.fifo[0]
        return (len(el.rows) >= self.max_merge or now - el.created_ms >= self.batch_timeout_ms - 1e-9
                or now >= el.created_ms + self.batch_timeout_ms)

    def _dispatch(self, node: _Node, now: float) -> None:
        buf = node.buffer
        fifo = buf.fifo
        waiting = self.batch_timeout_ms is not None
        while fifo and node.busy < self.groups and (not waiting or self._head_dispatchable(node, now)):
            el = buf.pop()
            left = len(fifo)
            if left == 0:
                self.nonempty.discard(node.index)
            if left + 1 == buf.capacity:
                self.full_buffers -= 1
            self._start(node, el.rows, el.padded_len, el.created_ms, now)

    def _start(self, node: _Node, rows: list[int], padded_len: int, created_ms: float, now: float) -> None:
        """Run an element's rows on one of the node's free groups and schedule their completion."""
        self.element_waits.append(now - created_ms)
        node.busy += 1
        k = self.k
        key = (k, len(rows), padded_len, node.busy)
        dt = self.service_ms.get(key)
        if dt is None:
            el = BufferElement(padded_len // self.cfg.bin_width - 1, padded_len, rows, created_ms)
            dt = self.service_ms[key] = service_time(el, k, self.cfg, self.factors, active_groups=node.busy)
        heapq.heappush(self.events, (now + dt, self._seq, _COMPLETION, (node, rows)))
        self._seq += 1

    def _arrive(self, node: _Node, row: int, now: float) -> None:
        """Start the row's request at once where buffering it would give the same run (the
        direct start of the module docstring), else push or defer it and run the boundary."""
        buf = node.buffer
        if (self.batch_timeout_ms is None and not buf.fifo and node.busy < self.groups
                and buf.capacity > 1 and not self.full_buffers and not self.retrying):
            self.direct_starts += 1
            self._start(node, [row], self.padded_lens[self.lengths[row]], now, now)
            return
        if node.retry or self._try_push(node, row, now) == REJECTED:
            # a full buffer defers the request to the next event boundary
            self.deferred += 1
            node.retry.append(row)
            self.retrying.add(node.index)
        self._boundary(now, node)

    def _try_push(self, node: _Node, row: int, now: float) -> str:
        buf = node.buffer
        result = buf.push(row, self.lengths[row], now)
        if result == APPENDED:
            size = len(buf.fifo)
            if size == 1:
                self.nonempty.add(node.index)
            if size > self.max_occupancy:
                self.max_occupancy = size
            if size == buf.capacity:
                self.full_buffers += 1
            if self.batch_timeout_ms is not None:
                self._push_event(now + self.batch_timeout_ms, _TIMER, node)
        return result

    def controller_tick(self, now: float) -> str:
        """The adaptation rule, evaluated at every event boundary: drop one student per
        group when a buffer has filled (more, cheaper groups); add one back when every
        buffer has been empty for the idle window and idle groups outnumber busy ones."""
        ctl, k = self.ctl, self.k
        if self.full_buffers and k > ctl.min_students:
            self._set_k(k - 1, now)
            return DROP_ONE
        if (self.nonempty or k >= ctl.max_students or now - self.last_empty < ctl.idle_window_ms
                or sum(max(0, self.groups - n.busy) - n.busy for n in self.nodes) <= 0):
            return HOLD
        self._set_k(k + 1, now)
        self.last_empty = now  # a fresh idle window must elapse before the next add
        return ADD_ONE

    def _boundary(self, now: float, own: _Node | None) -> None:
        retrying = self.retrying
        if retrying or self.batch_timeout_ms is not None:
            touched = set(retrying)
            if self.batch_timeout_ms is not None:
                touched |= self.nonempty
            if own is not None:
                touched.add(own.index)
            nodes = [self.nodes[i] for i in (sorted(touched) if len(touched) > 1 else touched)]
            # retries first, preserving arrival order ahead of newer rejects
            for i in sorted(retrying) if retrying else ():
                node = self.nodes[i]
                retry = node.retry
                while retry and self._try_push(node, retry[0], now) != REJECTED:
                    retry.popleft()
                if not retry:
                    retrying.discard(i)
        elif own is None or not own.buffer.fifo:
            nodes = ()  # unless k changes, nothing to dispatch
        else:
            nodes = (own,)
        if self.controller_tick(now) != HOLD:  # every buffer's capacity and group count changed
            nodes = self.nodes
        groups = self.groups
        for node in nodes:
            if node.buffer.fifo and node.busy < groups:
                self._dispatch(node, now)
        if self.nonempty:
            self.buffered = True
        elif self.buffered:  # the cluster turns idle: the idle window starts
            self.buffered = False
            self.last_empty = now

    def _beat_state(self) -> tuple[int, int, int]:
        """What a heartbeat's boundary can change: any event it pushes moves the
        sequence counter, an action moves k, and a retry that goes in shortens a queue."""
        return self._seq, self.k, sum(len(self.nodes[i].retry) for i in self.retrying)

    def _last_quiet_beat(self, now: float) -> float:
        """The last heartbeat time before the next event, the next arrival or the end
        of the idle window, whichever is first. After a heartbeat that changed nothing,
        no beat before it can act: until one of those, only the controller's idle test
        reads the clock. A waiting-queue head comes due at its timer at the latest, and
        every buffered element's timer is a heap event."""
        until = math.inf
        if self.events:
            until = self.events[0][0]
        if self.arrival_times:
            until = min(until, self.arrival_times[-1])
        idle_end = self.last_empty + self.ctl.idle_window_ms
        if idle_end > now:
            until = min(until, idle_end)
        if until == math.inf:
            return until
        # a beat at or past 2**53 ms ends the run (see run), so the search may stop below 2**55,
        # where each step down still moves the sum; far above it, now + 100 rounds back to now
        until = min(until, 4 * CLOCK_LIMIT_MS)
        beats = math.ceil((until - now) / HEARTBEAT_MS) - 1
        while beats > 1 and now + beats * HEARTBEAT_MS >= until:
            beats -= 1
        return now + beats * HEARTBEAT_MS

    def run(self) -> SimMetrics:
        events, times, rows = self.events, self.arrival_times, self.arrival_rows
        arrive, nodes, node_count = self._arrive, self.nodes, len(self.nodes)
        finish, finish_ms, finish_sizes = self.finished.extend, self.finish_ms.append, self.finish_sizes.append
        now = 0.0
        while events:  # a heartbeat stays pending while arrivals remain
            if times and times[-1] <= events[0][0]:
                now = times.pop()
                row = rows.pop()
                arrive(nodes[row % node_count], row, now)
                continue
            now, _, kind, payload = heapq.heappop(events)
            if kind == _HEARTBEAT:
                # one heartbeat is pending at a time; beats go on while other events
                # remain, then for an idle window plus five beats after the last of them.
                # The next beat takes its place in the heap order now, before this beat's
                # boundary pushes anything, and its time once the boundary has run.
                seq, self._seq = self._seq, self._seq + 1
                more = bool(events or times)
                before = self._beat_state()
                self._boundary(now, None)
                nxt = now + HEARTBEAT_MS
                if self._beat_state() == before:
                    nxt = max(nxt, self._last_quiet_beat(now))
                if more or nxt <= self.last_event_ms + self.ctl.idle_window_ms + 5 * HEARTBEAT_MS:
                    if nxt >= CLOCK_LIMIT_MS:  # the clock only grows, so the run cannot end below it
                        raise _clock_error(nxt)
                    heapq.heappush(events, (nxt, seq, _HEARTBEAT, None))
                continue
            self.last_event_ms = now
            if kind == _COMPLETION:
                node, done = payload
                node.busy -= 1
                finish(done)
                finish_ms(now)
                finish_sizes(len(done))
            else:
                node = payload
            self._boundary(now, node)
        if now >= CLOCK_LIMIT_MS:  # the clock only grows, so the last event is its maximum
            raise _clock_error(now)
        self._check_invariants()
        return self._metrics()

    def _check_invariants(self) -> None:
        """Raise RuntimeError naming every end-of-run invariant that does not hold."""
        nodes = self.nodes
        broken = [name for name, holds in (
            ("completed == generated", len(self.finished) == len(self.workload)),
            ("no group is busy", all(n.busy == 0 for n in nodes)),
            ("every buffer is empty", all(not n.buffer.fifo for n in nodes)),
            ("every retry queue is empty", all(not n.retry for n in nodes)),
            ("full_buffers == recount", self.full_buffers == sum(n.buffer.is_full() for n in nodes)),
            ("nonempty == recount", self.nonempty == {n.index for n in nodes if n.buffer.fifo}),
            ("retrying == recount", self.retrying == {n.index for n in nodes if n.retry}),
            ("buffered == bool(nonempty)", self.buffered == bool(self.nonempty)),
            ("groups == group_count(k)", self.groups == group_count(
                self.k, self.cfg.gpus_per_node, self.cfg.replicas_per_gpu)),
        ) if not holds]
        if broken:
            raise RuntimeError("simulation invariant broken: " + ", ".join(broken))

    def _metrics(self) -> SimMetrics:
        # the columns are built and reordered one at a time, and the latencies dropped once
        # read, to keep the peak in memory low
        finished, workload = np.asarray(self.finished), self.workload
        ids = workload.request_id[finished]
        arrival = workload.arrival_ms[finished]
        completion = np.repeat(self.finish_ms, self.finish_sizes)
        lengths = workload.length_tokens[finished]
        avg = p95 = throughput = None
        if len(finished):
            span_ms = float(completion.max() - arrival.min())
            total_gpus = self.cfg.nodes * self.cfg.gpus_per_node
            throughput = 1000.0 * len(finished) / (span_ms * total_gpus) if span_ms > 0 else None
            latencies = completion - arrival  # in completion order, which np.mean's pairwise sum follows
            avg = float(np.mean(latencies))
            latencies.sort()
            p95 = nearest_rank(latencies, 95.0)
            del latencies
            # by arrival, ties by id; lexsort is stable, so whole-key ties keep completion order
            order = np.lexsort((ids, arrival))
            for column in (ids, arrival, completion, lengths):
                column[:] = column[order]
        # a direct start waits exactly 0 ms, the least a wait can be, so dropping that many of
        # the smallest waits leaves the buffered elements' waits
        waits = np.array(self.element_waits)
        waits.sort()
        waits = waits[self.direct_starts:]
        timeline = self.k_timeline
        return SimMetrics(
            avg_latency_ms=avg,
            p95_latency_ms=p95,
            throughput_per_gpu=throughput,
            completed=len(finished),
            generated=len(self.workload),
            deferred=self.deferred,
            direct_starts=self.direct_starts,
            dispatches=len(waits),
            requests_per_dispatch=(len(finished) - self.direct_starts) / len(waits) if len(waits) else None,
            buffer_wait_p50_ms=nearest_rank(waits, 50.0) if len(waits) else None,
            buffer_wait_p95_ms=nearest_rank(waits, 95.0) if len(waits) else None,
            buffer_wait_max_ms=float(waits[-1]) if len(waits) else None,
            max_buffer_occupancy=self.max_occupancy,
            student_number_timeline=timeline,
            # accuracies as floats: a flat table's rows may be ints
            accuracy_timeline=[(t, float(self.ctl.accuracy_table.val_accuracy(k))) for t, k in timeline],
            columns=LatencyColumns(ids, arrival, completion, lengths),
        )


def run_simulation(cluster: ClusterConfig, workload: Workload, factors: ServiceFactors) -> SimMetrics:
    """Run the event loop to completion and return the metrics."""
    return Simulation(cluster, workload, factors).run()
