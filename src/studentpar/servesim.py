"""Deterministic discrete-event simulator of the student-parallel serving system.

One global dispatcher round-robins arrivals across nodes. Each node owns a
length-aware buffer (bounded FIFO of small same-length-bin batches) and a
set of student groups; whenever a group is idle the head buffer element is
dispatched immediately. Service times come from the calibrated analytic
performance model. A controller drops one student per group when a buffer
fills (starting more groups) and adds one back after a sustained idle
window. A dynamic-batching baseline mode replaces immediate dispatch with
a waiting queue and full-length padding, for ablation runs.

The simulated clock is real-valued milliseconds; ties break by event
insertion order, so identical inputs give identical outputs.

Each event touches only the nodes whose state it can change: its own node
(none for a heartbeat), every node with deferred requests waiting to retry
and, in waiting-queue mode, every node with a non-empty buffer, since its
head can become dispatchable by time alone. Touched nodes are visited in
ascending index, which fixes the order completion events enter the heap.
All nodes are swept only when the student count k changes, because every
buffer's capacity changes with it. The controller reads aggregate counters
kept exact wherever a buffer or a busy count changes, so the cost of an
event does not grow with the node count.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .distill import AccuracyTable, check_counts, check_positive
from .perfmodel import DEFAULT_CAPACITY, DEFAULT_GATHER_MS, DEFAULT_PCIE_TOKENS_PER_MS, PerfFactors, PerfModel
from .seeding import rng_for


@dataclass(frozen=True)
class Request:
    id: int
    arrival_ms: float
    length_tokens: int


@dataclass(frozen=True)
class PoissonSpec:
    """Synthetic open-loop workload: Poisson arrivals, histogram lengths."""

    rps: float
    duration_ms: float
    length_weights: tuple[float, ...] | None = None  # one weight per length bin


@dataclass(frozen=True)
class TraceFile:
    path: str
    scale: float = 1.0


DEFAULT_LENGTH_WEIGHTS = (1.0, 2.0, 3.0, 3.0, 2.0, 1.5, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1)


def generate_workload(kind, seed: int, max_len: int = 128, bin_width: int = 8) -> list[Request]:
    """Arrival-sorted requests, deterministic per seed.

    A Poisson workload draws the first arrival gap, then per request its
    length bin, its length within the bin and the gap to the next arrival.
    The bin is one uniform searched in the weights' normalised CDF, the same
    draw as ``Generator.choice(n_bins, p=weights / weights.sum())``.
    """
    if isinstance(kind, PoissonSpec):
        if kind.rps <= 0:
            raise ValueError("rps must be positive")
        rng = rng_for(seed, "workload")
        weights = np.asarray(kind.length_weights or DEFAULT_LENGTH_WEIGHTS, dtype=np.float64)
        total = weights.sum()
        if weights.ndim != 1 or not (np.isfinite(weights).all() and (weights >= 0).all()
                                     and np.isfinite(total) and total > 0):
            raise ValueError("length_weights must be a list of finite, non-negative numbers "
                             "with a positive sum")
        if len(weights) * bin_width > max_len:
            raise ValueError("length_weights cover more than max_len tokens")
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
        scale = 1000.0 / kind.rps
        duration_ms = kind.duration_ms
        exponential, uniform, integers = rng.exponential, rng.random, rng.integers
        requests = []
        append = requests.append
        t = exponential(scale)
        while t <= duration_ms:
            lo = bisect_right(cdf, uniform()) * bin_width + 1
            append(Request(len(requests), t, int(integers(lo, lo + bin_width))))
            t += exponential(scale)
        return requests
    if isinstance(kind, TraceFile):
        requests = []
        with open(kind.path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["arrival_ms", "length_tokens"]:
                raise ValueError(f"trace line 1: expected header arrival_ms,length_tokens, got {header}")
            last_t = -math.inf
            for lineno, row in enumerate(reader, start=2):
                try:
                    t, length = float(row[0]), int(row[1])
                except (ValueError, IndexError) as exc:
                    raise ValueError(f"trace line {lineno}: malformed row {row!r}") from exc
                if t < last_t:
                    raise ValueError(f"trace line {lineno}: arrival times must be nondecreasing")
                if length < 1:
                    raise ValueError(f"trace line {lineno}: length must be >= 1")
                last_t = t
                requests.append(Request(len(requests), t * kind.scale, length))
        return requests
    raise TypeError(f"unknown workload kind {type(kind).__name__}")


def write_trace(requests: list[Request], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arrival_ms", "length_tokens"])
        for r in requests:
            writer.writerow([f"{r.arrival_ms:.6f}", r.length_tokens])


# -- length-aware buffer -------------------------------------------------------

MERGED = "merged"
APPENDED = "appended"
REJECTED = "rejected"


@dataclass
class BufferElement:
    """Up to max_merge requests sharing one length bin, padded to its upper edge."""

    bin: int
    padded_len: int
    requests: list[Request] = field(default_factory=list)
    created_ms: float = 0.0

    @property
    def size(self) -> int:
        return len(self.requests)


class LengthAwareBuffer:
    """Bounded FIFO of buffer elements with an O(1) bin index.

    ``index`` maps a length bin to its unique open (non-full) element, if
    any; entries are removed the moment an element fills or leaves the
    FIFO, so every push and pop touches a constant number of elements.
    ``op_touches`` records the element touches of the last operation, for
    the constant-work property tests.
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
        self.op_touches = 0

    def __len__(self) -> int:
        return len(self.fifo)

    def is_full(self) -> bool:
        return len(self.fifo) >= self.capacity

    def bin_of(self, length: int) -> int:
        if length < 1:
            raise ValueError("length must be >= 1")
        length = min(length, self.max_len)  # longer samples are clipped
        return (length + self.bin_width - 1) // self.bin_width - 1

    def push(self, req: Request, now_ms: float = 0.0) -> str:
        self.op_touches = 0
        b = self.num_bins - 1 if self.pad_to_max else self.bin_of(req.length_tokens)
        el = self.index.get(b)
        if el is not None:
            self.op_touches = 1
            el.requests.append(req)
            if el.size >= self.max_merge:
                del self.index[b]
            return MERGED
        if self.is_full():
            return REJECTED
        el = BufferElement(bin=b, padded_len=(b + 1) * self.bin_width, requests=[req], created_ms=now_ms)
        self.op_touches = 1
        self.fifo.append(el)
        if el.size < self.max_merge:  # a size-1 element is already full when max_merge == 1
            self.index[b] = el
        return APPENDED

    def pop(self) -> BufferElement:
        if not self.fifo:
            raise IndexError("pop from empty buffer")
        el = self.fifo.popleft()
        self.op_touches = 1
        if self.index.get(el.bin) is el:
            del self.index[el.bin]
        return el

    def head(self) -> BufferElement | None:
        return self.fifo[0] if self.fifo else None


# -- allocation and configuration ----------------------------------------------


def group_count(group_size: int, gpus: int, replicas_per_gpu: int) -> int:
    """Replica groups a node can host: floor(replicas * G / S), at least 1."""
    return max(1, (replicas_per_gpu * gpus) // group_size)


def allocate_students(group_size: int, gpus: int, replicas_per_gpu: int) -> dict[tuple[int, int], int]:
    """GPU placement (group j, student i) -> (i + j*S) mod G for every replica group."""
    if group_size < 1 or gpus < 1:
        raise ValueError("group_size and gpus must be >= 1")
    total = group_count(group_size, gpus, replicas_per_gpu)
    return {
        (j, i): (i + j * group_size) % gpus
        for j in range(total)
        for i in range(group_size)
    }


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
        if not self.idle_window_ms >= 0:
            raise ValueError(f"idle_window_ms must be >= 0, got {self.idle_window_ms!r}")
        if len(self.accuracy_table) < self.max_students:
            raise ValueError("accuracy_table must cover 1..max_students")


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
        if not self.controller.min_students <= self.group_size <= self.controller.max_students:
            raise ValueError("group_size must lie within the controller's [min, max] range")
        if self.batch_timeout_ms is not None and not self.batch_timeout_ms >= 0:
            raise ValueError(f"batch_timeout_ms must be >= 0, got {self.batch_timeout_ms!r}")

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
        if not self.gather_ms >= 0:
            raise ValueError(f"gather_ms must be >= 0, got {self.gather_ms!r}")


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


def decide_controller_action(
    k: int,
    min_students: int,
    max_students: int,
    any_buffer_full: bool,
    all_buffers_idle_ms: float | None,
    idle_students: int,
    occupied_students: int,
    idle_window_ms: float,
) -> str:
    """Pure adaptation rule evaluated at every event boundary.

    Drop one student per group when a buffer has filled (more, cheaper
    groups); add one back when every buffer has been empty for the idle
    window and idle groups outweigh occupied ones.
    """
    if any_buffer_full and k > min_students:
        return DROP_ONE
    if (
        k < max_students
        and all_buffers_idle_ms is not None
        and all_buffers_idle_ms >= idle_window_ms
        and idle_students > occupied_students
    ):
        return ADD_ONE
    return HOLD


@dataclass
class CompletionRecord:
    request_id: int
    arrival_ms: float
    completion_ms: float
    length_tokens: int

    @property
    def latency_ms(self) -> float:
        return self.completion_ms - self.arrival_ms


@dataclass
class SimMetrics:
    avg_latency_ms: float | None
    p95_latency_ms: float | None
    throughput_per_gpu: float | None
    completed: int
    student_number_timeline: list[tuple[float, int]]
    accuracy_timeline: list[tuple[float, float]]
    generated: int = 0
    rejected_pushes: int = 0
    per_request: list[CompletionRecord] = field(default_factory=list, repr=False)


def nearest_rank_percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _round6(x):
    return None if x is None else round(float(x), 6)


def metrics_to_json_dict(m: SimMetrics) -> dict:
    return {
        "avg_latency_ms": _round6(m.avg_latency_ms),
        "p95_latency_ms": _round6(m.p95_latency_ms),
        "throughput_per_gpu": _round6(m.throughput_per_gpu),
        "completed": m.completed,
        "student_number_timeline": [[_round6(t), k] for t, k in m.student_number_timeline],
        "accuracy_timeline": [[_round6(t), _round6(a)] for t, a in m.accuracy_timeline],
    }


def write_metrics_json(m: SimMetrics, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics_to_json_dict(m), fh, indent=1)
        fh.write("\n")


def write_latency_csv(records: list[CompletionRecord], path) -> None:
    """The bytes ``csv.writer`` would write (CRLF line ends, nothing needs quoting), in one pass."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("request_id,arrival_ms,completion_ms,latency_ms,length_tokens\r\n")
        fh.writelines(f"{r.request_id},{r.arrival_ms:.6f},{r.completion_ms:.6f},{r.latency_ms:.6f},"
                      f"{r.length_tokens}\r\n" for r in records)


class _Node:
    def __init__(self, index: int, buffer: LengthAwareBuffer):
        self.index = index
        self.buffer = buffer
        self.retry: deque[Request] = deque()
        self.busy = 0
        self.empty_since: float | None = 0.0


_ARRIVAL, _COMPLETION, _TIMER, _HEARTBEAT = "arrival", "completion", "timer", "heartbeat"
HEARTBEAT_MS = 100.0


class Simulation:
    """Event loop state; use run_simulation unless you need to poke internals."""

    def __init__(self, cluster: ClusterConfig, workload: list[Request], factors: ServiceFactors):
        if factors.model.t_unit is None:
            raise RuntimeError("perf model must be calibrated before simulation")
        self.cfg = cluster
        self.factors = factors
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
        self.busy_groups = 0
        self.last_empty = 0.0             # latest time any node's empty_since was set
        self.events: list[tuple[float, int, str, object]] = []
        self._seq = 0
        self.records: list[CompletionRecord] = []
        self.element_waits: list[float] = []  # buffer residence per dispatched element
        self.rejected_pushes = 0
        # service_time is a pure function of (k, size, padded_len, active groups) for
        # this cluster and these factors, so each distinct dispatch shape is modelled once
        self.service_ms: dict[tuple[int, int, int, int], float] = {}
        self.generated = len(workload)
        self.k_timeline: list[tuple[float, int]] = [(0.0, self.k)]
        self.acc_timeline: list[tuple[float, float]] = [
            (0.0, cluster.controller.accuracy_table.val_accuracy(self.k))
        ]
        self.last_event_ms = 0.0  # time of the latest event that is not a heartbeat
        for i, req in enumerate(workload):
            self._push_event(req.arrival_ms, _ARRIVAL, (i % cluster.nodes, req))
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
        self.acc_timeline.append((now, self.cfg.controller.accuracy_table.val_accuracy(new_k)))

    def _head_dispatchable(self, node: _Node, now: float) -> bool:
        fifo = node.buffer.fifo
        if not fifo:
            return False
        timeout = self.cfg.batch_timeout_ms
        if timeout is None:
            return True
        el = fifo[0]
        return el.size >= self.cfg.max_merge or now - el.created_ms >= timeout - 1e-9

    def _dispatch(self, node: _Node, now: float) -> None:
        buf = node.buffer
        while node.busy < self.groups and self._head_dispatchable(node, now):
            el = buf.pop()
            left = len(buf)
            if left == 0:
                self.nonempty.discard(node.index)
            if left + 1 == buf.capacity:
                self.full_buffers -= 1
            self.element_waits.append(now - el.created_ms)
            node.busy += 1
            self.busy_groups += 1
            key = (self.k, el.size, el.padded_len, node.busy)
            dt = self.service_ms.get(key)
            if dt is None:
                dt = self.service_ms[key] = service_time(el, self.k, self.cfg, self.factors,
                                                         active_groups=node.busy)
            self._push_event(now + dt, _COMPLETION, (node, el))

    def _try_push(self, node: _Node, req: Request, now: float) -> str:
        buf = node.buffer
        result = buf.push(req, now)
        if result == APPENDED:
            size = len(buf)
            if size == 1:
                self.nonempty.add(node.index)
            if size == buf.capacity:
                self.full_buffers += 1
            if self.cfg.batch_timeout_ms is not None:
                self._push_event(now + self.cfg.batch_timeout_ms, _TIMER, node)
        return result

    def controller_tick(self, now: float) -> str:
        ctl = self.cfg.controller
        # a buffer empties only at a boundary's end, where empty_since is set, so
        # when every buffer is empty each empty_since is set and last_empty is their max
        idle_ms = None if self.nonempty else now - self.last_empty
        idle_students = 0
        if idle_ms is not None and idle_ms >= ctl.idle_window_ms and self.k < ctl.max_students:
            # every other ADD_ONE condition holds; only now is the sweep worth it
            idle_students = sum(max(0, self.groups - n.busy) for n in self.nodes) * self.k
        action = decide_controller_action(
            self.k, ctl.min_students, ctl.max_students, self.full_buffers > 0, idle_ms,
            idle_students, self.busy_groups * self.k, ctl.idle_window_ms,
        )
        if action == DROP_ONE:
            self._set_k(self.k - 1, now)
        elif action == ADD_ONE:
            self._set_k(self.k + 1, now)
            for node in self.nodes:  # a fresh idle window must elapse before the next add
                if node.empty_since is not None:
                    node.empty_since = now
            self.last_empty = now
        return action

    def _boundary(self, now: float, own: _Node | None) -> None:
        if self.retrying or self.cfg.batch_timeout_ms is not None:
            touched = set(self.retrying)
            if self.cfg.batch_timeout_ms is not None:
                touched |= self.nonempty
            if own is not None:
                touched.add(own.index)
            nodes = [self.nodes[i] for i in sorted(touched)]
        else:
            nodes = () if own is None else (own,)
        # retries first, preserving arrival order ahead of newer rejects
        for node in nodes:
            retry = node.retry
            while retry and self._try_push(node, retry[0], now) != REJECTED:
                retry.popleft()
            if not retry:
                self.retrying.discard(node.index)
        k = self.k
        self.controller_tick(now)
        if self.k != k:  # every buffer's capacity and group count changed
            nodes = self.nodes
        for node in nodes:
            self._dispatch(node, now)
            if node.buffer.fifo:
                node.empty_since = None
            elif node.empty_since is None:
                node.empty_since = self.last_empty = now

    def run(self) -> SimMetrics:
        while self.events:
            now, _, kind, payload = heapq.heappop(self.events)
            node = None
            if kind == _HEARTBEAT:
                # one heartbeat is pending at a time; beats go on while other events
                # remain, then for an idle window plus five beats after the last of them
                nxt = now + HEARTBEAT_MS
                if self.events or nxt <= (self.last_event_ms + self.cfg.controller.idle_window_ms
                                          + 5 * HEARTBEAT_MS):
                    self._push_event(nxt, _HEARTBEAT, None)
            else:
                self.last_event_ms = now
            if kind == _ARRIVAL:
                node_id, req = payload
                node = self.nodes[node_id]
                if node.retry or self._try_push(node, req, now) == REJECTED:
                    # a full buffer defers the request to the next event boundary
                    self.rejected_pushes += 1
                    node.retry.append(req)
                    self.retrying.add(node_id)
            elif kind == _COMPLETION:
                node, el = payload
                node.busy -= 1
                self.busy_groups -= 1
                for req in el.requests:
                    self.records.append(CompletionRecord(req.id, req.arrival_ms, now, req.length_tokens))
            elif kind == _TIMER:
                node = payload
            self._boundary(now, node)
        self._check_invariants()
        return self._metrics()

    def _check_invariants(self) -> None:
        """Raise RuntimeError naming every end-of-run invariant that does not hold."""
        nodes = self.nodes
        stamps = [n.empty_since for n in nodes]
        broken = [name for name, holds in (
            ("completed == generated", len(self.records) == self.generated),
            ("no group is busy", all(n.busy == 0 for n in nodes)),
            ("every buffer is empty", all(not n.buffer.fifo for n in nodes)),
            ("every retry queue is empty", all(not n.retry for n in nodes)),
            ("full_buffers == recount", self.full_buffers == sum(n.buffer.is_full() for n in nodes)),
            ("nonempty == recount", self.nonempty == {n.index for n in nodes if n.buffer.fifo}),
            ("retrying == recount", self.retrying == {n.index for n in nodes if n.retry}),
            ("busy_groups == recount", self.busy_groups == sum(n.busy for n in nodes)),
            ("last_empty == max(empty_since)", None not in stamps and self.last_empty == max(stamps)),
            ("groups == group_count(k)", self.groups == group_count(
                self.k, self.cfg.gpus_per_node, self.cfg.replicas_per_gpu)),
        ) if not holds]
        if broken:
            raise RuntimeError("simulation invariant broken: " + ", ".join(broken))

    def _metrics(self) -> SimMetrics:
        lats = [r.latency_ms for r in self.records]
        if lats:
            span_ms = max(r.completion_ms for r in self.records) - min(r.arrival_ms for r in self.records)
            total_gpus = self.cfg.nodes * self.cfg.gpus_per_node
            throughput = 1000.0 * len(lats) / (span_ms * total_gpus) if span_ms > 0 else None
            avg = float(np.mean(lats))
            p95 = nearest_rank_percentile(lats, 95.0)
        else:
            avg = p95 = throughput = None
        return SimMetrics(
            avg_latency_ms=avg,
            p95_latency_ms=p95,
            throughput_per_gpu=throughput,
            completed=len(self.records),
            student_number_timeline=self.k_timeline,
            accuracy_timeline=self.acc_timeline,
            generated=self.generated,
            rejected_pushes=self.rejected_pushes,
            per_request=sorted(self.records, key=lambda r: (r.arrival_ms, r.request_id)),
        )


def run_simulation(cluster: ClusterConfig, workload: list[Request], factors: ServiceFactors) -> SimMetrics:
    """Run the event loop to completion and return the metrics."""
    return Simulation(cluster, workload, factors).run()
