"""The whole event loop against a slow, obvious reference simulator.

``ReferenceSimulation`` below has none of ``Simulation``'s optimisations: no
counters, no arrivals outside the heap, no skipped heartbeats, no service-time
memo, no direct start and no choice of nodes per event. Its rules are the
simulator's spec:

- every arrival is a heap event numbered 0..n-1 in workload order, so it goes
  ahead of every other event at its time; request i is served by node i % nodes;
- every arrival is pushed into its node's buffer, or deferred behind the node's
  earlier deferred requests when there are any or the buffer is full;
- every event then sweeps every node in ascending index: deferred requests
  retry node by node, the controller acts once, and every node dispatches;
- a heartbeat fires every 100 ms while other events remain, then for an idle
  window plus five beats after the last of them;
- the controller's inputs are recounted from the nodes at every event, its rule is
  written out here, and each node keeps the time its buffer last turned empty;
- ``service_time`` is called on every dispatch;
- in waiting-queue mode a head element is dispatched once it is full or has
  waited out the timeout, and at its own timer at the latest.

``Simulation`` must give the same run, bit for bit.
"""

import heapq
from collections import deque
from itertools import count
from operator import itemgetter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from studentpar import distill as dst
from studentpar import perfmodel as pm
from studentpar import servesim as sim

ARRIVAL, COMPLETION, TIMER, HEARTBEAT = "arrival", "completion", "timer", "heartbeat"


class RefNode:
    def __init__(self, buffer):
        self.buffer = buffer
        self.retry = deque()
        self.busy = 0
        self.empty_since = 0.0  # when the buffer was last seen to turn empty; None while it holds elements


class ReferenceSimulation:
    def __init__(self, cluster, workload, factors):
        self.cfg, self.factors, self.ctl = cluster, factors, cluster.controller
        self.k = cluster.group_size
        self.nodes = [RefNode(sim.LengthAwareBuffer(cluster.num_bins, cluster.bin_width, cluster.max_merge,
                                                    self.groups(), cluster.pad_to_max))
                      for _ in range(cluster.nodes)]
        self.events, self.seq = [], count()
        # the buffers and retry queues hold the requests' indices in ``workload``, as Simulation's rows
        self.requests = workload
        for i, req in enumerate(workload):
            self.push_event(req.arrival_ms, ARRIVAL, (self.nodes[i % cluster.nodes], i))
        self.push_event(0.0, HEARTBEAT, None)
        self.rows, self.element_waits, self.deferred = [], [], 0
        self.k_timeline = [(0.0, self.k)]
        self.last_event_ms = 0.0

    def groups(self):
        return sim.group_count(self.k, self.cfg.gpus_per_node, self.cfg.replicas_per_gpu)

    def push_event(self, t, kind, payload):
        heapq.heappush(self.events, (t, next(self.seq), kind, payload))

    def push(self, node, i, now):
        result = node.buffer.push(i, self.requests[i].length_tokens, now)
        if result == sim.APPENDED and self.cfg.batch_timeout_ms is not None:
            self.push_event(now + self.cfg.batch_timeout_ms, TIMER, node)
        return result

    def head_due(self, el, now):
        timeout = self.cfg.batch_timeout_ms
        return timeout is None or (el.size >= self.cfg.max_merge or now - el.created_ms >= timeout - 1e-9
                                   or now >= el.created_ms + timeout)

    def set_k(self, k, now):
        self.k = k
        for node in self.nodes:
            node.buffer.capacity = self.groups()
        self.k_timeline.append((now, k))

    def controller_tick(self, now):
        nodes, groups, k = self.nodes, self.groups(), self.k
        # drop one student per group when a buffer is full; add one back when every buffer
        # has been empty for the idle window and idle students outnumber occupied ones
        if any(len(node.buffer.fifo) >= groups for node in nodes) and k > self.ctl.min_students:
            self.set_k(k - 1, now)
        elif (k < self.ctl.max_students and not any(node.buffer.fifo for node in nodes)
              and now - max(node.empty_since for node in nodes) >= self.ctl.idle_window_ms
              and sum(max(0, groups - node.busy) for node in nodes) * k > sum(node.busy for node in nodes) * k):
            self.set_k(k + 1, now)
            for node in nodes:  # the idle window starts again
                node.empty_since = now

    def start(self, node, el, now):
        self.element_waits.append(now - el.created_ms)
        node.busy += 1
        dt = sim.service_time(el, self.k, self.cfg, self.factors, active_groups=node.busy)
        self.push_event(now + dt, COMPLETION, (node, el))

    def boundary(self, now):
        for node in self.nodes:
            while node.retry and self.push(node, node.retry[0], now) != sim.REJECTED:
                node.retry.popleft()
        self.controller_tick(now)
        for node in self.nodes:
            fifo = node.buffer.fifo
            while fifo and node.busy < self.groups() and self.head_due(fifo[0], now):
                self.start(node, node.buffer.pop(), now)
            if fifo:
                node.empty_since = None
            elif node.empty_since is None:
                node.empty_since = now

    def run(self):
        tail_ms = self.ctl.idle_window_ms + 5 * sim.HEARTBEAT_MS
        while self.events:
            now, _, kind, payload = heapq.heappop(self.events)
            if kind == HEARTBEAT:  # the next beat goes ahead of whatever this one's boundary pushes
                if self.events or now + sim.HEARTBEAT_MS <= self.last_event_ms + tail_ms:
                    self.push_event(now + sim.HEARTBEAT_MS, HEARTBEAT, None)
            else:
                self.last_event_ms = now
                if kind == ARRIVAL:
                    node, i = payload
                    if node.retry or self.push(node, i, now) == sim.REJECTED:
                        self.deferred += 1
                        node.retry.append(i)
                elif kind == COMPLETION:
                    node, el = payload
                    node.busy -= 1
                    done = map(self.requests.__getitem__, el.rows)
                    self.rows += [(r.id, r.arrival_ms, now, r.length_tokens) for r in done]
            self.boundary(now)
        # (request_id, arrival_ms, completion_ms, length_tokens) by arrival, then id
        return sorted(self.rows, key=itemgetter(1, 0))


# -- the comparison -------------------------------------------------------------------


def factors():
    model = pm.PerfModel()
    model.calibrate(pm.baseline_reference(), 11.6)
    return sim.ServiceFactors(model=model, depth=2, width_per_student=256)


def cluster(nodes, gpus_per_node, replicas_per_gpu, max_merge, pad_to_max, batch_timeout_ms, idle_window_ms,
            students):
    table = dst.AccuracyTable([(k, 0.92 + 0.01 * k, 0.92 + 0.01 * k) for k in range(1, students + 1)])
    ctl = sim.ControllerConfig(max_students=students, accuracy_table=table, min_students=1,
                               idle_window_ms=idle_window_ms)
    return sim.ClusterConfig(controller=ctl, nodes=nodes, gpus_per_node=gpus_per_node, group_size=students,
                             replicas_per_gpu=replicas_per_gpu, max_merge=max_merge, pad_to_max=pad_to_max,
                             batch_timeout_ms=batch_timeout_ms)


def workload(nodes, rps_per_node, sparse, skewed, ties, seed):
    """A burst, a lull and a second burst, or one sparse second. A skewed workload gives
    node 0 only 128-token requests, so node 0 can defer requests while another node
    idles. Tied arrivals are rounded down to 0.5 ms and served in a shuffled order."""
    phases = [(rps_per_node / 200, 1_000.0)] if sparse else \
        [(rps_per_node, 15.0), (rps_per_node / 20, 50.0), (rps_per_node, 10.0)]
    requests, offset = [], 0.0
    for i, (rps, duration) in enumerate(phases):
        requests += sim.generate_workload(sim.PoissonSpec(rps=rps * nodes, duration_ms=duration), seed + i,
                                          offset_ms=offset, first_id=len(requests)).requests()
        offset += duration
    if ties:
        order = np.random.default_rng(seed).permutation(len(requests))
        requests = [requests[i]._replace(arrival_ms=float(np.floor(requests[i].arrival_ms * 2.0)) / 2.0)
                    for i in order]
    if skewed:  # requests are served round-robin in workload order
        requests = [r._replace(length_tokens=128) if i % nodes == 0 else r for i, r in enumerate(requests)]
    return requests


def hexed_run(rows, k_timeline, deferred, element_waits):
    return ([(i, a.hex(), t.hex(), n) for i, a, t, n in rows],
            [(t.hex(), k) for t, k in k_timeline], deferred, [w.hex() for w in element_waits])


@settings(max_examples=40, deadline=None)
@given(nodes=st.integers(1, 4), gpus_per_node=st.sampled_from([1, 2, 4]), replicas_per_gpu=st.sampled_from([1, 3]),
       max_merge=st.integers(1, 8), pad_to_max=st.booleans(), batch_timeout_ms=st.sampled_from([None, 2.0, 2_000.0]),
       idle_window_ms=st.sampled_from([0.0, 20.0, 250.0]), students=st.sampled_from([3, 5]),
       rps_per_node=st.sampled_from([1_200.0, 6_000.0, 40_000.0]), sparse=st.booleans(), skewed=st.booleans(),
       ties=st.booleans(), seed=st.integers(0, 2**16))
# a long timeout against sparse arrivals keeps lone elements buffered across many quiet beats
@example(nodes=2, gpus_per_node=4, replicas_per_gpu=3, max_merge=4, pad_to_max=False, batch_timeout_ms=2_000.0,
         idle_window_ms=250.0, students=3, rps_per_node=6_000.0, sparse=True, skewed=False, ties=False, seed=1)
# an overload on one group per node: pushes are deferred, students dropped and added back
@example(nodes=3, gpus_per_node=1, replicas_per_gpu=1, max_merge=2, pad_to_max=False, batch_timeout_ms=2.0,
         idle_window_ms=20.0, students=3, rps_per_node=40_000.0, sparse=False, skewed=False, ties=True, seed=2)
# node 0 defers requests while node 1 idles, so node 1 may not start an arrival at once
@example(nodes=2, gpus_per_node=2, replicas_per_gpu=3, max_merge=4, pad_to_max=False, batch_timeout_ms=None,
         idle_window_ms=20.0, students=3, rps_per_node=40_000.0, sparse=False, skewed=True, ties=False, seed=5)
# with no idle window the controller adds a student back at the beats of 100 and 200 ms: a rule
# that decides from the state alone whether a beat can act, without the add-back test, skips the second
@example(nodes=1, gpus_per_node=4, replicas_per_gpu=1, max_merge=4, pad_to_max=False, batch_timeout_ms=None,
         idle_window_ms=0.0, students=5, rps_per_node=40_000.0, sparse=False, skewed=False, ties=False, seed=0)
def test_simulation_equals_the_reference(nodes, gpus_per_node, replicas_per_gpu, max_merge, pad_to_max,
                                         batch_timeout_ms, idle_window_ms, students, rps_per_node, sparse, skewed,
                                         ties, seed):
    config = cluster(nodes, gpus_per_node, replicas_per_gpu, max_merge, pad_to_max, batch_timeout_ms, idle_window_ms,
                     students)
    requests = workload(nodes, rps_per_node, sparse, skewed, ties, seed)
    reference = ReferenceSimulation(config, requests, factors())
    want = hexed_run(reference.run(), reference.k_timeline, reference.deferred, reference.element_waits)
    simulation = sim.Simulation(config, sim.Workload.from_requests(requests), factors())
    m = simulation.run()
    rows = zip(*(column.tolist() for column in m.columns))
    assert hexed_run(rows, m.student_number_timeline, m.deferred, simulation.element_waits) == want
