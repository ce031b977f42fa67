import csv
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from studentpar import distill as dst
from studentpar import perfmodel as pm
from studentpar import servesim as sim
from studentpar.seeding import rng_for


def flat_table(m=3, base=0.93):
    return dst.AccuracyTable([(k, base + 0.01 * (k - 1), base + 0.01 * (k - 1)) for k in range(1, m + 1)])


def calibrated_factors(**overrides):
    model = pm.PerfModel()
    model.calibrate(pm.baseline_reference(), 11.6)
    base = dict(model=model, depth=2, width_per_student=256,
                capacity=pm.DEFAULT_CAPACITY, pcie_tokens_per_ms=pm.DEFAULT_PCIE_TOKENS_PER_MS,
                gather_ms=pm.DEFAULT_GATHER_MS)
    base.update(overrides)
    return sim.ServiceFactors(**base)


def make_cluster(**overrides):
    ctl = overrides.pop("controller", None) or sim.ControllerConfig(
        max_students=3, accuracy_table=flat_table(), min_students=1, idle_window_ms=120_000.0
    )
    base = dict(controller=ctl, nodes=1, gpus_per_node=4, group_size=3, replicas_per_gpu=3)
    base.update(overrides)
    return sim.ClusterConfig(**base)


# -- workload generation -----------------------------------------------------


def test_workload_deterministic_per_seed():
    spec = sim.PoissonSpec(rps=100.0, duration_ms=10_000.0)
    a = sim.generate_workload(spec, seed=42)
    b = sim.generate_workload(spec, seed=42)
    assert a == b
    c = sim.generate_workload(spec, seed=43)
    assert a != c


def test_workload_can_be_empty():
    spec = sim.PoissonSpec(rps=1e-7, duration_ms=1.0)
    assert sim.generate_workload(spec, seed=0) == []


def test_workload_mean_interarrival_within_two_percent():
    spec = sim.PoissonSpec(rps=1000.0, duration_ms=100_000.0)  # ~100k samples
    reqs = sim.generate_workload(spec, seed=7)
    gaps = np.diff([r.arrival_ms for r in reqs])
    assert abs(np.mean(gaps) - 1.0) < 0.02


def test_workload_lengths_in_range():
    spec = sim.PoissonSpec(rps=500.0, duration_ms=5_000.0)
    reqs = sim.generate_workload(spec, seed=1)
    assert all(1 <= r.length_tokens <= 128 for r in reqs)
    assert all(a.arrival_ms <= b.arrival_ms for a, b in zip(reqs, reqs[1:]))
    assert [r.id for r in reqs] == list(range(len(reqs)))


def reference_poisson_workload(spec, seed, max_len=128, bin_width=8):
    """The per-request loop with ``Generator.choice``, kept as the oracle of generate_workload."""
    rng = rng_for(seed, "workload")
    weights = np.asarray(spec.length_weights or sim.DEFAULT_LENGTH_WEIGHTS, dtype=np.float64)
    n_bins = len(weights)
    assert n_bins * bin_width <= max_len
    probs = weights / weights.sum()
    requests = []
    t = rng.exponential(1000.0 / spec.rps)
    rid = 0
    while t <= spec.duration_ms:
        b = int(rng.choice(n_bins, p=probs))
        length = int(rng.integers(b * bin_width + 1, (b + 1) * bin_width + 1))
        requests.append(sim.Request(rid, t, length))
        rid += 1
        t += rng.exponential(1000.0 / spec.rps)
    return requests


@pytest.mark.parametrize("bin_width", [4, 8])
@pytest.mark.parametrize("weights", [
    None,
    (1.0,),
    (0.0, 0.0, 1.0, 2.0, 3.0),
    (1.0, 2.0, 0.0, 0.0),
    (1e-3, 5.0, 0.25, 7.5, 1e-6, 2.0, 0.0, 3.3),
], ids=["default", "single-bin", "leading-zeros", "trailing-zeros", "uneven"])
def test_workload_equals_choice_reference(weights, bin_width):
    for seed in (0, 1, 7, 2024):
        spec = sim.PoissonSpec(rps=2_000.0, duration_ms=400.0, length_weights=weights)
        got = sim.generate_workload(spec, seed, max_len=16 * bin_width, bin_width=bin_width)
        assert got == reference_poisson_workload(spec, seed, 16 * bin_width, bin_width)
        assert len(got) > 600


@pytest.mark.parametrize("weights", [
    (1.0, -0.5), (1.0, float("nan")), (1.0, float("inf")), (0.0, 0.0), ((1.0, 2.0),),
    (1e308, 1e308),
], ids=["negative", "nan", "inf", "all-zero", "nested", "sum-overflows"])
@pytest.mark.parametrize("rps", [1_000.0, 1e-7], ids=["draws", "draws-nothing"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_bad_length_weights_rejected_up_front(weights, rps):
    spec = sim.PoissonSpec(rps=rps, duration_ms=100.0, length_weights=weights)
    with pytest.raises(ValueError, match="length_weights"):
        sim.generate_workload(spec, seed=0)


def test_trace_round_trip(tmp_path):
    spec = sim.PoissonSpec(rps=200.0, duration_ms=2_000.0)
    reqs = sim.generate_workload(spec, seed=2)
    path = tmp_path / "trace.csv"
    sim.write_trace(reqs, path)
    loaded = sim.generate_workload(sim.TraceFile(str(path)), seed=0)
    assert len(loaded) == len(reqs)
    assert all(l.length_tokens == r.length_tokens for l, r in zip(loaded, reqs))
    assert all(abs(l.arrival_ms - r.arrival_ms) < 1e-5 for l, r in zip(loaded, reqs))


def test_trace_scale_applies(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("arrival_ms,length_tokens\n100.0,10\n200.0,20\n")
    loaded = sim.generate_workload(sim.TraceFile(str(path), scale=0.5), seed=0)
    assert [r.arrival_ms for r in loaded] == [50.0, 100.0]


def test_trace_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("arrival_ms,length_tokens\n1.0,10\nnot-a-number,5\n")
    with pytest.raises(ValueError, match="line 3"):
        sim.generate_workload(sim.TraceFile(str(path)), seed=0)


# -- binning -------------------------------------------------------------------


def cluster_buffer(cfg):
    return sim.LengthAwareBuffer(cfg.num_bins, cfg.bin_width, cfg.max_merge, capacity=1)


def test_bin_of_boundaries():
    buf = cluster_buffer(make_cluster())
    assert buf.bin_of(1) == 0
    assert buf.bin_of(8) == 0
    assert buf.bin_of(9) == 1
    assert buf.bin_of(128) == 15
    assert buf.bin_of(500) == 15  # clipped
    with pytest.raises(ValueError):
        buf.bin_of(0)


def test_bin_of_length_30_pads_to_32():
    cfg = make_cluster()
    b = cluster_buffer(cfg).bin_of(30)
    assert b == 3
    assert (b + 1) * cfg.bin_width == 32


# -- length-aware buffer ----------------------------------------------------------


def new_buffer(capacity=8, max_merge=4, pad_to_max=False):
    return sim.LengthAwareBuffer(16, 8, max_merge, capacity, pad_to_max)


def req(rid, length, t=0.0):
    return sim.Request(rid, t, length)


def test_push_into_empty_appends():
    buf = new_buffer()
    assert buf.push(req(0, 30)) == sim.APPENDED
    assert len(buf) == 1


def test_same_bin_merges_up_to_max():
    buf = new_buffer()
    buf.push(req(0, 30))
    assert buf.push(req(1, 25)) == sim.MERGED  # both bin 3
    assert len(buf) == 1
    assert buf.head().size == 2


def test_full_element_spills_to_new_element():
    buf = new_buffer(max_merge=4)
    for i in range(4):
        buf.push(req(i, 50))
    assert buf.head().size == 4
    assert buf.push(req(4, 52)) == sim.APPENDED  # cannot join the full element
    assert len(buf) == 2


def test_pop_is_fifo():
    buf = new_buffer()
    buf.push(req(0, 20))   # bin 2
    buf.push(req(1, 45))   # bin 5
    popped = buf.pop()
    assert popped.bin == 2
    assert [r.id for r in popped.requests] == [0]


def test_pop_then_same_bin_push_creates_new_element():
    buf = new_buffer()
    buf.push(req(0, 20))
    buf.pop()
    assert buf.push(req(1, 20)) == sim.APPENDED
    assert len(buf) == 1


def test_rejected_at_capacity():
    buf = new_buffer(capacity=1)
    buf.push(req(0, 20))
    assert buf.push(req(1, 90)) == sim.REJECTED  # different bin, fifo full
    assert buf.push(req(2, 20)) == sim.MERGED    # same bin still merges


def test_padded_len_is_bin_upper_edge():
    buf = new_buffer()
    buf.push(req(0, 30))
    assert buf.head().padded_len == 32


def test_pad_to_max_mode_uses_last_bin():
    buf = new_buffer(pad_to_max=True)
    buf.push(req(0, 5))
    buf.push(req(1, 120))
    assert len(buf) == 1
    assert buf.head().padded_len == 128


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        new_buffer().pop()


class NaiveBuffer:
    """Reference model: plain list, linear scans, same merge semantics."""

    def __init__(self, num_bins, bin_width, max_merge, capacity):
        self.num_bins, self.bin_width = num_bins, bin_width
        self.max_merge, self.capacity = max_merge, capacity
        self.elements = []  # [bin, [ids], open]

    def push(self, rid, length):
        length = min(length, self.num_bins * self.bin_width)
        b = (length + self.bin_width - 1) // self.bin_width - 1
        for el in self.elements:
            if el[0] == b and el[2]:
                el[1].append(rid)
                if len(el[1]) >= self.max_merge:
                    el[2] = False
                return sim.MERGED
        if len(self.elements) >= self.capacity:
            return sim.REJECTED
        self.elements.append([b, [rid], 1 < self.max_merge])
        return sim.APPENDED

    def pop(self):
        return self.elements.pop(0)

    def snapshot(self):
        return [(el[0], tuple(el[1])) for el in self.elements]


def buffer_snapshot(buf):
    return [(el.bin, tuple(r.id for r in el.requests)) for el in buf.fifo]


def test_fuzz_against_naive_model():
    rng = np.random.Generator(np.random.PCG64(99))
    buf = new_buffer(capacity=6, max_merge=3)
    naive = NaiveBuffer(16, 8, 3, 6)
    rid = 0
    for _ in range(2000):
        if buf.fifo and rng.random() < 0.4:
            got = buf.pop()
            want = naive.pop()
            assert (got.bin, tuple(r.id for r in got.requests)) == (want[0], tuple(want[1]))
        else:
            length = int(rng.integers(1, 129))
            got = buf.push(req(rid, length))
            want = naive.push(rid, length)
            assert got == want
            rid += 1
        assert buffer_snapshot(buf) == naive.snapshot()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(min_value=1, max_value=160)), max_size=60))
def test_buffer_index_integrity(ops):
    buf = new_buffer(capacity=5, max_merge=4)
    rid = 0
    for is_pop, length in ops:
        if is_pop and buf.fifo:
            buf.pop()
        else:
            buf.push(req(rid, length))
            rid += 1
        # index entries point at live, non-full elements; one open element per bin
        live = set(map(id, buf.fifo))
        for b, el in buf.index.items():
            assert id(el) in live
            assert el.bin == b
            assert el.size < buf.max_merge
        assert len(buf.index) == len({el.bin for el in buf.index.values()})
        assert len(buf.fifo) <= buf.capacity


def test_constant_touches_across_sizes():
    worst = 0
    for capacity in (4, 64, 1024, 4096):
        rng = np.random.Generator(np.random.PCG64(5))
        buf = new_buffer(capacity=capacity)
        for i in range(3000):
            if buf.fifo and rng.random() < 0.3:
                buf.pop()
            else:
                buf.push(req(i, int(rng.integers(1, 129))))
            worst = max(worst, buf.op_touches)
    assert worst <= 2


# -- allocation --------------------------------------------------------------------


def test_allocation_one_group_covers_gpus():
    placement = sim.allocate_students(4, 4, 1)
    assert placement == {(0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3}


def test_allocation_second_group_colocates():
    placement = sim.allocate_students(4, 4, 2)
    assert [placement[(1, i)] for i in range(4)] == [0, 1, 2, 3]


def test_allocation_matches_brute_force():
    s, g, replicas = 3, 4, 3
    placement = sim.allocate_students(s, g, replicas)
    total = max(1, replicas * g // s)
    assert len(placement) == total * s
    for j in range(total):
        for i in range(s):
            assert placement[(j, i)] == (i + j * s) % g


# -- service time -------------------------------------------------------------------


def element(size, padded_len, b=None):
    reqs = [req(i, padded_len) for i in range(size)]
    return sim.BufferElement(bin=(padded_len // 8) - 1 if b is None else b,
                             padded_len=padded_len, requests=reqs)


def test_short_vs_long_sample():
    cfg = make_cluster()
    factors = calibrated_factors()
    short = sim.service_time(element(1, 8), 3, cfg, factors)
    long = sim.service_time(element(1, 128), 3, cfg, factors)
    assert long > short


def test_single_student_has_no_gather():
    cfg = make_cluster(group_size=1)
    factors = calibrated_factors()
    with_k1 = sim.service_time(element(1, 16), 1, cfg, factors)
    with_k2 = sim.service_time(element(1, 16), 2, cfg, factors)
    # the k=2 service includes the cross-GPU gather; removing it and the
    # width increase leaves the k=1 value
    assert with_k2 > with_k1
    no_gather = calibrated_factors(gather_ms=0.0)
    assert sim.service_time(element(1, 16), 1, cfg, no_gather) == with_k1


def test_doubling_batch_doubles_saturated_compute():
    cfg = make_cluster(gpus_per_node=1)
    # capacity divides the work exactly, so the wave count is strictly linear in B
    factors = calibrated_factors(capacity=1024.0, pcie_tokens_per_ms=1e9, gather_ms=0.0)
    s2 = sim.service_time(element(2, 16), 1, cfg, factors)
    s4 = sim.service_time(element(4, 16), 1, cfg, factors)
    assert s4 == pytest.approx(2 * s2, rel=1e-12)


# -- controller rule ----------------------------------------------------------------


def test_drop_one_fires_on_full_buffer():
    assert sim.decide_controller_action(3, 1, 3, True, None, 0, 12, 1000.0) == sim.DROP_ONE


def test_drop_one_respects_min():
    assert sim.decide_controller_action(1, 1, 3, True, None, 0, 12, 1000.0) == sim.HOLD


def test_add_one_needs_full_window():
    assert sim.decide_controller_action(2, 1, 3, False, 60_000.0, 9, 3, 120_000.0) == sim.HOLD
    assert sim.decide_controller_action(2, 1, 3, False, 120_000.0, 9, 3, 120_000.0) == sim.ADD_ONE


def test_add_one_needs_idle_majority():
    assert sim.decide_controller_action(2, 1, 3, False, 200_000.0, 3, 9, 120_000.0) == sim.HOLD


def test_add_one_respects_max():
    assert sim.decide_controller_action(3, 1, 3, False, 200_000.0, 9, 3, 120_000.0) == sim.HOLD


# -- end-to-end simulation ------------------------------------------------------------


def test_controller_tick_surface_applies_drop():
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=1)
    cluster = make_cluster(replicas_per_gpu=1, gpus_per_node=3, group_size=3, controller=ctl)
    simulation = sim.Simulation(cluster, [], calibrated_factors())
    node = simulation.nodes[0]
    simulation._try_push(node, req(0, 90), 0.0)
    simulation._dispatch(node, 0.0)
    assert node.busy == simulation.groups == 1  # the node's one group is busy
    assert simulation._try_push(node, req(1, 20), 0.0) == sim.APPENDED
    assert node.buffer.is_full()
    assert simulation.controller_tick(1.0) == sim.DROP_ONE
    assert simulation.k == 2
    assert node.buffer.capacity == sim.group_count(2, 3, 1)
    assert simulation.k_timeline[-1] == (1.0, 2)


def test_single_request_latency_is_service_time():
    cluster = make_cluster()
    factors = calibrated_factors()
    workload = [sim.Request(0, 5.0, 20)]
    metrics = sim.run_simulation(cluster, workload, factors)
    assert metrics.completed == 1
    el = element(1, 24)  # length 20 -> bin 2 -> padded 24
    expected = sim.service_time(el, cluster.group_size, cluster, factors, active_groups=1)
    assert metrics.avg_latency_ms == pytest.approx(expected, rel=1e-12)
    assert metrics.p95_latency_ms == pytest.approx(expected, rel=1e-12)


def test_two_simultaneous_requests_no_wait():
    cluster = make_cluster()
    factors = calibrated_factors()
    workload = [sim.Request(0, 1.0, 10), sim.Request(1, 1.0, 50)]  # different bins
    metrics = sim.run_simulation(cluster, workload, factors)
    assert metrics.completed == 2
    lat = {r.request_id: r.latency_ms for r in metrics.per_request}
    s_first = sim.service_time(element(1, 16), 3, cluster, factors, active_groups=1)
    s_second = sim.service_time(element(1, 56), 3, cluster, factors, active_groups=2)
    assert lat[0] == pytest.approx(s_first, rel=1e-12)
    assert lat[1] == pytest.approx(s_second, rel=1e-12)


def test_merged_requests_complete_together():
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=3)
    cluster = make_cluster(replicas_per_gpu=1, gpus_per_node=3, group_size=3, controller=ctl)
    assert sim.group_count(3, 3, 1) == 1
    factors = calibrated_factors()
    # the group stays busy with request 0 (service ~0.43 ms) while 1 and 2 arrive
    workload = [sim.Request(0, 0.0, 20), sim.Request(1, 0.1, 21), sim.Request(2, 0.2, 22)]
    metrics = sim.run_simulation(cluster, workload, factors)
    assert metrics.completed == 3
    by_id = {r.request_id: r for r in metrics.per_request}
    # requests 1 and 2 merged while the single group was busy with request 0
    assert by_id[1].completion_ms == by_id[2].completion_ms
    assert by_id[1].completion_ms > by_id[0].completion_ms


def test_elements_dispatch_in_fifo_order():
    ctl = sim.ControllerConfig(max_students=2, accuracy_table=flat_table(2), min_students=2)
    cluster = make_cluster(replicas_per_gpu=1, gpus_per_node=2, group_size=2, controller=ctl)
    factors = calibrated_factors()
    # one long run occupies the single group; three distinct bins queue up
    workload = [sim.Request(0, 0.0, 128),
                sim.Request(1, 0.1, 8), sim.Request(2, 0.2, 40), sim.Request(3, 0.3, 90)]
    metrics = sim.run_simulation(cluster, workload, factors)
    by_id = {r.request_id: r for r in metrics.per_request}
    assert by_id[1].completion_ms < by_id[2].completion_ms < by_id[3].completion_ms


def test_conservation_under_overload():
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=3)
    cluster = make_cluster(replicas_per_gpu=1, gpus_per_node=3, group_size=3, controller=ctl)
    factors = calibrated_factors()
    workload = sim.generate_workload(sim.PoissonSpec(rps=4000.0, duration_ms=500.0), seed=3)
    metrics = sim.run_simulation(cluster, workload, factors)
    assert metrics.completed == metrics.generated == len(workload)
    assert metrics.rejected_pushes > 0  # overload actually exercised the retry path


def test_wait_bound_with_equal_service_times():
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=3)
    cluster = make_cluster(replicas_per_gpu=1, gpus_per_node=3, group_size=3,
                           max_merge=1, controller=ctl)
    # abundant capacity: waves stay 1 so every element costs the same
    factors = calibrated_factors(capacity=1e12)
    lengths = sim.PoissonSpec(rps=2500.0, duration_ms=400.0,
                              length_weights=(1.0,) + (0.0,) * 15)
    workload = sim.generate_workload(lengths, seed=4)
    simulation = sim.Simulation(cluster, workload, factors)
    simulation.run()
    service = sim.service_time(element(1, 8), 3, cluster, factors, active_groups=1)
    assert simulation.element_waits, "expected some buffered elements"
    assert max(simulation.element_waits) <= service + 1e-9


def test_metrics_json_deterministic(tmp_path):
    cluster = make_cluster()
    factors = calibrated_factors()
    workload = sim.generate_workload(sim.PoissonSpec(rps=300.0, duration_ms=2_000.0), seed=5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    sim.write_metrics_json(sim.run_simulation(cluster, workload, factors), p1)
    sim.write_metrics_json(sim.run_simulation(cluster, workload, factors), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_metrics_keys_and_rounding(tmp_path):
    cluster = make_cluster()
    factors = calibrated_factors()
    workload = sim.generate_workload(sim.PoissonSpec(rps=200.0, duration_ms=1_000.0), seed=6)
    path = tmp_path / "m.json"
    sim.write_metrics_json(sim.run_simulation(cluster, workload, factors), path)
    data = json.loads(path.read_text())
    assert set(data) == {"avg_latency_ms", "p95_latency_ms", "throughput_per_gpu",
                         "completed", "student_number_timeline", "accuracy_timeline"}
    for value in (data["avg_latency_ms"], data["p95_latency_ms"]):
        assert round(value, 6) == value


def test_empty_workload_yields_null_metrics():
    cluster = make_cluster()
    factors = calibrated_factors()
    metrics = sim.run_simulation(cluster, [], factors)
    assert metrics.completed == 0
    assert metrics.avg_latency_ms is None
    assert metrics.p95_latency_ms is None
    assert metrics.throughput_per_gpu is None


def test_waiting_queue_mode_strictly_slower():
    factors = calibrated_factors()
    workload = sim.generate_workload(sim.PoissonSpec(rps=400.0, duration_ms=3_000.0), seed=8)
    fast = sim.run_simulation(make_cluster(), workload, factors)
    slow = sim.run_simulation(make_cluster(batch_timeout_ms=10.0), workload, factors)
    assert slow.avg_latency_ms > fast.avg_latency_ms


def test_burst_dips_and_recovers():
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(),
                               min_students=1, idle_window_ms=3_000.0)
    cluster = make_cluster(replicas_per_gpu=1, gpus_per_node=4, group_size=3, controller=ctl)
    factors = calibrated_factors()
    phases = [(40.0, 2_000.0), (12_000.0, 1_000.0), (40.0, 12_000.0)]
    workload, offset, rid = [], 0.0, 0
    for i, (rps, dur) in enumerate(phases):
        part = sim.generate_workload(sim.PoissonSpec(rps=rps, duration_ms=dur), seed=100 + i)
        for r in part:
            workload.append(sim.Request(rid, r.arrival_ms + offset, r.length_tokens))
            rid += 1
        offset += dur
    metrics = sim.run_simulation(cluster, workload, factors)
    ks = [k for _, k in metrics.student_number_timeline]
    assert min(ks) < 3, f"controller never dropped a student: {metrics.student_number_timeline}"
    assert ks[-1] == 3, f"student count did not recover: {metrics.student_number_timeline}"
    # accuracy timeline tracks the table at every switch
    for (_, k), (_, acc) in zip(metrics.student_number_timeline, metrics.accuracy_timeline):
        assert acc == pytest.approx(flat_table().val_accuracy(k))


def test_nearest_rank_percentile():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert sim.nearest_rank_percentile(values, 95.0) == 10.0
    assert sim.nearest_rank_percentile(values, 50.0) == 5.0
    assert sim.nearest_rank_percentile([7.0], 95.0) == 7.0


# -- event-loop work and pinned outputs ------------------------------------------------

# sha256 prefixes of (per-request completion times, k timeline, rejected pushes),
# recorded with the simulator that swept every node on every event
PINNED_OUTPUTS = {
    (1, None, False): "a47491d0d78c2bc2",
    (1, None, True): "d3167485d93e3c4a",
    (1, 2.0, False): "ee9d79b223bdb1c3",
    (1, 2.0, True): "cc3ffd6707897495",
    (3, None, False): "1e1f2d8c550c6f2b",
    (3, None, True): "bbd5987235c0bd02",
    (3, 2.0, False): "0abf80c3070960c4",
    (3, 2.0, True): "3993419af35041ee",
    (8, None, False): "34e982953bbdd798",
    (8, None, True): "190f5d34f7dbc50d",
    (8, 2.0, False): "f49bcf151ceae05c",
    (8, 2.0, True): "0cdb1bdd00a6e599",
}


@pytest.mark.parametrize("nodes, batch_timeout_ms, overload", list(PINNED_OUTPUTS))
def test_outputs_match_pinned_hashes(nodes, batch_timeout_ms, overload):
    # burst, lull, burst: a 20 ms idle window lets the controller drop and add
    # students; over load defers pushes
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=1,
                               idle_window_ms=20.0)
    cluster = make_cluster(controller=ctl, nodes=nodes, replicas_per_gpu=1,
                           batch_timeout_ms=batch_timeout_ms)
    rps = (12_000.0 if overload else 1_200.0) * nodes
    workload, offset = [], 0.0
    for i, (phase_rps, duration) in enumerate([(rps, 50.0), (rps / 20, 100.0), (rps, 30.0)]):
        spec = sim.PoissonSpec(rps=phase_rps, duration_ms=duration)
        for r in sim.generate_workload(spec, seed=10 * nodes + i):
            workload.append(sim.Request(len(workload), r.arrival_ms + offset, r.length_tokens))
        offset += duration
    m = sim.run_simulation(cluster, workload, calibrated_factors())
    blob = json.dumps([[(r.request_id, r.completion_ms) for r in m.per_request],
                       m.student_number_timeline, m.rejected_pushes])
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert digest == PINNED_OUTPUTS[(nodes, batch_timeout_ms, overload)]


class _Forgetful(dict):
    """A memo that stores nothing, so every dispatch calls service_time."""

    def __setitem__(self, key, value):
        pass


def test_service_time_memo_models_each_shape_once(monkeypatch):
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=1,
                               idle_window_ms=20.0)
    cluster = make_cluster(controller=ctl, nodes=3, replicas_per_gpu=1, batch_timeout_ms=2.0)
    workload, offset = [], 0.0
    for i, (rps, duration) in enumerate([(36_000.0, 50.0), (1_800.0, 100.0), (36_000.0, 30.0)]):
        for r in sim.generate_workload(sim.PoissonSpec(rps=rps, duration_ms=duration), seed=30 + i):
            workload.append(sim.Request(len(workload), r.arrival_ms + offset, r.length_tokens))
        offset += duration
    calls = []
    service_time = sim.service_time

    def counting(el, k, cfg, factors, active_groups=1):
        calls.append((k, el.size, el.padded_len, active_groups))
        return service_time(el, k, cfg, factors, active_groups=active_groups)

    monkeypatch.setattr(sim, "service_time", counting)
    memoised = sim.run_simulation(cluster, workload, calibrated_factors())
    distinct = len(calls)
    assert distinct == len(set(calls))
    calls.clear()
    simulation = sim.Simulation(cluster, workload, calibrated_factors())
    simulation.service_ms = _Forgetful()
    plain = simulation.run()
    assert len(calls) > 5 * distinct and len(set(calls)) == distinct
    assert len(plain.student_number_timeline) > 2 and plain.rejected_pushes > 0
    assert [(r.request_id, r.completion_ms) for r in memoised.per_request] == \
        [(r.request_id, r.completion_ms) for r in plain.per_request]
    assert memoised.student_number_timeline == plain.student_number_timeline
    assert memoised.rejected_pushes == plain.rejected_pushes


def reference_latency_csv(records, path):
    """The csv.writer version of write_latency_csv, kept as its oracle."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["request_id", "arrival_ms", "completion_ms", "latency_ms", "length_tokens"])
        for r in records:
            writer.writerow([r.request_id, f"{r.arrival_ms:.6f}", f"{r.completion_ms:.6f}",
                             f"{r.latency_ms:.6f}", r.length_tokens])


def test_latency_csv_bytes_equal_csv_writer(tmp_path):
    workload = sim.generate_workload(sim.PoissonSpec(rps=3_000.0, duration_ms=300.0), seed=4)
    records = sim.run_simulation(make_cluster(), workload, calibrated_factors()).per_request
    records += [sim.CompletionRecord(10**12, 0.0, 1e-7, 1), sim.CompletionRecord(-1, 1e15 / 3, 1e16, 128),
                sim.CompletionRecord(7, 0.1 + 0.2, 0.3, 5)]
    for rows in (records, []):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        sim.write_latency_csv(rows, got)
        reference_latency_csv(rows, want)
        assert got.read_bytes() == want.read_bytes()


def test_each_event_visits_at_most_one_node(monkeypatch):
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=3)
    cluster = make_cluster(controller=ctl, nodes=32)
    workload = sim.generate_workload(sim.PoissonSpec(rps=32 * 200.0, duration_ms=300.0), seed=9)
    counts = {"events": 0, "visits": 0}
    dispatch, tick = sim.Simulation._dispatch, sim.Simulation.controller_tick

    def counting_dispatch(self, node, now):
        counts["visits"] += 1
        dispatch(self, node, now)

    def counting_tick(self, now):
        counts["events"] += 1
        return tick(self, now)

    monkeypatch.setattr(sim.Simulation, "_dispatch", counting_dispatch)
    monkeypatch.setattr(sim.Simulation, "controller_tick", counting_tick)
    metrics = sim.run_simulation(cluster, workload, calibrated_factors())
    assert metrics.rejected_pushes == 0 and len(metrics.student_number_timeline) == 1
    assert 0 < counts["visits"] <= counts["events"]


def test_broken_counter_fails_end_of_run_check():
    workload = sim.generate_workload(sim.PoissonSpec(rps=500.0, duration_ms=200.0), seed=11)
    simulation = sim.Simulation(make_cluster(nodes=2), workload, calibrated_factors())
    simulation.busy_groups += 1
    with pytest.raises(RuntimeError, match="busy_groups == recount"):
        simulation.run()
