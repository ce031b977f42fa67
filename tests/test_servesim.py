import csv
import hashlib
import json
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def rows_of(m):
    """A run's per-request results, read from its columns, as (request_id, arrival_ms, completion_ms,
    length_tokens) tuples of Python ints and floats."""
    return list(zip(*(column.tolist() for column in m.columns)))


def completion_by_id(m):
    return dict(zip(m.columns.request_id.tolist(), m.columns.completion_ms.tolist()))


# -- workload generation -----------------------------------------------------


def test_workload_deterministic_per_seed():
    spec = sim.PoissonSpec(rps=100.0, duration_ms=10_000.0)
    a = sim.generate_workload(spec, seed=42)
    b = sim.generate_workload(spec, seed=42)
    assert a.requests() == b.requests()
    c = sim.generate_workload(spec, seed=43)
    assert a.requests() != c.requests()


def test_request_is_an_immutable_named_record():
    req = sim.Request(3, 1.5, 17)
    assert sim.Request._fields == ("id", "arrival_ms", "length_tokens")
    assert (req.id, req.arrival_ms, req.length_tokens) == (3, 1.5, 17)
    assert req == sim.Request(id=3, arrival_ms=1.5, length_tokens=17) != sim.Request(3, 1.5, 16)
    assert hash(req) == hash(sim.Request(3, 1.5, 17))
    assert len({req, sim.Request(3, 1.5, 17), sim.Request(4, 1.5, 17)}) == 2
    with pytest.raises(AttributeError):
        req.arrival_ms = 2.0


def test_workload_can_be_empty():
    spec = sim.PoissonSpec(rps=1e-7, duration_ms=1.0)
    workload = sim.generate_workload(spec, seed=0)
    assert len(workload) == 0 and workload.requests() == []


def test_every_workload_path_gives_columns_whose_len_is_the_request_count(tmp_path):
    fast, loop = tmp_path / "fast.csv", tmp_path / "loop.csv"
    fast.write_text("arrival_ms,length_tokens\n0.5,4\n1.5,16\n")
    loop.write_text('arrival_ms,length_tokens\n"0.5",4\n1.5,16\n')  # a quoted field goes to the csv loop
    workloads = [sim.generate_workload(sim.PoissonSpec(rps=2_000.0, duration_ms=50.0), seed=3),
                 sim.generate_workload(sim.TraceFile(str(fast)), seed=0),
                 sim.generate_workload(sim.TraceFile(str(loop)), seed=0)]
    for workload in workloads:
        assert len(workload) == len(workload.request_id) == len(workload.requests())
        assert (workload.request_id.dtype, workload.arrival_ms.dtype, workload.length_tokens.dtype) == \
            (np.int64, np.float64, np.int64)
    assert len(workloads[0]) > 50
    assert workloads[1].requests() == workloads[2].requests() == [(0, 0.5, 4), (1, 1.5, 16)]


@pytest.mark.parametrize("columns", [
    (np.zeros(2), np.zeros(2), np.zeros(2, np.int64)),               # float ids
    (np.zeros(2, np.int64), np.zeros(3), np.zeros(2, np.int64)),     # columns of different lengths
    (np.zeros(2, np.int64), np.zeros(2, np.float32), np.zeros(2, np.int64)),
    (np.zeros((1, 2), np.int64), np.zeros((1, 2)), np.zeros((1, 2), np.int64)),
    ([0, 1], [0.0, 1.0], [1, 2]),                                    # lists, not arrays
], ids=["float-ids", "lengths-differ", "float32-times", "2-d", "lists"])
def test_a_workload_takes_only_its_three_column_types(columns):
    with pytest.raises(ValueError, match="int64 request_id, float64 arrival_ms and int64 length_tokens"):
        sim.Workload(*columns)


# the first two used to give ids [1, 1] and lengths [4, 3], and a string arrival used to be parsed
@pytest.mark.parametrize("rows", [
    [(1.5, 0.0, 4.7), (True, 1.0, 3)], [(1.5, 0.0, 4)], [(True, 1.0, 3)], [(0, 0.0, 4.7)], [(0, 0.0, False)],
    [(0, 0.0, "3")], [(0, "1.5", 3)], [(0, None, 3)], [(0, True, 3)], [(0, np.bool_(True), 3)],
], ids=repr)
def test_hand_written_rows_of_the_wrong_types_are_refused(rows):
    with pytest.raises(ValueError, match="int id, an int or float arrival_ms and an int length_tokens"):
        sim.Workload.from_requests(rows)


def test_hand_written_rows_of_another_width_are_refused():  # the fourth field used to be dropped
    with pytest.raises(ValueError):
        sim.Workload.from_requests([(0, 0.0, 3, 9), (1, 1.0, 4)])


def test_hand_written_rows_take_python_and_numpy_numbers():
    workload = sim.Workload.from_requests([(0, 1, 8), (np.int64(1), np.float64(1.5), np.int32(9)),
                                           (2, np.float32(2.5), 10)])
    assert workload.requests() == [(0, 1.0, 8), (1, 1.5, 9), (2, 2.5, 10)]


def test_workload_mean_interarrival_within_two_percent():
    spec = sim.PoissonSpec(rps=1000.0, duration_ms=100_000.0)  # ~100k samples
    gaps = np.diff(sim.generate_workload(spec, seed=7).arrival_ms)
    assert abs(np.mean(gaps) - 1.0) < 0.02


def test_workload_lengths_in_range():
    spec = sim.PoissonSpec(rps=500.0, duration_ms=5_000.0)
    workload = sim.generate_workload(spec, seed=1)
    assert ((1 <= workload.length_tokens) & (workload.length_tokens <= 128)).all()
    assert (workload.arrival_ms[:-1] <= workload.arrival_ms[1:]).all()
    assert workload.request_id.tolist() == list(range(len(workload)))


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


@pytest.mark.parametrize("bin_width", [1, 2, 3, 4, 5, 7, 8])
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
        assert got.requests() == reference_poisson_workload(spec, seed, 16 * bin_width, bin_width)
        assert len(got) > 600


def test_length_draw_rejection_equals_reference(monkeypatch):
    # the first length draw reads the 32-bit half the generator holds back; set it to 0,
    # which Lemire's method rejects at width 3 (threshold 2**32 mod 3 == 1)
    state = rng_for(0, "workload").bit_generator.state
    state.update(has_uint32=1, uinteger=0)

    def prepared(seed, label):
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = state
        return rng

    words = []
    uint32_words = sim._uint32_words

    def recording(bit_generator):
        for word in uint32_words(bit_generator):
            words.append(word)
            yield word

    monkeypatch.setattr(sim, "rng_for", prepared)
    monkeypatch.setattr(sim, "_uint32_words", recording)
    monkeypatch.setitem(globals(), "rng_for", prepared)
    spec = sim.PoissonSpec(rps=2_000.0, duration_ms=50.0)
    got = sim.generate_workload(spec, 0, max_len=48, bin_width=3)
    assert got.requests() == reference_poisson_workload(spec, 0, max_len=48, bin_width=3)
    # at width 3 only the word 0 is rejected, so exactly one extra word was read
    assert words[0] == 0 and len(words) == len(got) + 1 and len(got) > 50


def test_length_draw_width_limit():
    spec = sim.PoissonSpec(rps=2_000.0, duration_ms=20.0, length_weights=(1.0, 2.0))
    widest = 1 << 32  # numpy draws one 32-bit word unbounded here
    got = sim.generate_workload(spec, 5, max_len=2 * widest, bin_width=widest)
    assert got.requests() == reference_poisson_workload(spec, 5, 2 * widest, widest) and len(got) > 20
    with pytest.raises(ValueError, match="bin_width"):
        sim.generate_workload(spec, 5, max_len=2 * widest + 2, bin_width=widest + 1)


@pytest.mark.parametrize("weights", [
    (1.0, -0.5), (1.0, float("nan")), (1.0, float("inf")), (0.0, 0.0), ((1.0, 2.0),),
    (1e308, 1e308),
], ids=["negative", "nan", "inf", "all-zero", "nested", "sum-overflows"])
@pytest.mark.parametrize("rps", [1_000.0, 1e-7], ids=["draws", "draws-nothing"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_bad_length_weights_rejected_up_front(weights, rps):
    with pytest.raises(ValueError, match="length_weights"):
        sim.generate_workload(sim.PoissonSpec(rps=rps, duration_ms=100.0, length_weights=weights), seed=0)


@pytest.mark.parametrize("weights", [[], ()], ids=repr)
def test_empty_length_weights_are_the_defaults(weights):
    def draw(**kw):
        return sim.generate_workload(sim.PoissonSpec(rps=2_000.0, duration_ms=50.0, **kw), seed=3).requests()

    assert draw(length_weights=weights) == draw()


def test_trace_round_trip(tmp_path):
    spec = sim.PoissonSpec(rps=200.0, duration_ms=2_000.0)
    drawn = sim.generate_workload(spec, seed=2)
    path = tmp_path / "trace.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arrival_ms", "length_tokens"])
        writer.writerows([f"{r.arrival_ms:.6f}", r.length_tokens] for r in drawn.requests())
    loaded = sim.generate_workload(sim.TraceFile(str(path)), seed=0)
    assert len(loaded) == len(drawn)
    assert np.array_equal(loaded.length_tokens, drawn.length_tokens)
    assert (np.abs(loaded.arrival_ms - drawn.arrival_ms) < 1e-5).all()


def test_trace_scale_applies(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("arrival_ms,length_tokens\n100.0,10\n200.0,20\n")
    loaded = sim.generate_workload(sim.TraceFile(str(path), scale=0.5), seed=0)
    assert loaded.arrival_ms.tolist() == [50.0, 100.0]


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


def test_push_into_empty_appends():
    buf = new_buffer()
    assert buf.push(0, 30) == sim.APPENDED
    assert len(buf) == 1


def test_same_bin_merges_up_to_max():
    buf = new_buffer()
    buf.push(0, 30)
    assert buf.push(1, 25) == sim.MERGED  # both bin 3
    assert len(buf) == 1
    assert buf.fifo[0].size == 2


def test_full_element_spills_to_new_element():
    buf = new_buffer(max_merge=4)
    for i in range(4):
        buf.push(i, 50)
    assert buf.fifo[0].size == 4
    assert buf.push(4, 52) == sim.APPENDED  # cannot join the full element
    assert len(buf) == 2


def test_pop_is_fifo():
    buf = new_buffer()
    buf.push(0, 20)   # bin 2
    buf.push(1, 45)   # bin 5
    popped = buf.pop()
    assert popped.bin == 2
    assert popped.rows == [0]


def test_pop_then_same_bin_push_creates_new_element():
    buf = new_buffer()
    buf.push(0, 20)
    buf.pop()
    assert buf.push(1, 20) == sim.APPENDED
    assert len(buf) == 1


def test_rejected_at_capacity():
    buf = new_buffer(capacity=1)
    buf.push(0, 20)
    assert buf.push(1, 90) == sim.REJECTED  # different bin, fifo full
    assert buf.push(2, 20) == sim.MERGED    # same bin still merges


def test_padded_len_is_bin_upper_edge():
    buf = new_buffer()
    buf.push(0, 30)
    assert buf.fifo[0].padded_len == 32


def test_pad_to_max_mode_uses_last_bin():
    buf = new_buffer(pad_to_max=True)
    buf.push(0, 5)
    buf.push(1, 120)
    assert len(buf) == 1
    assert buf.fifo[0].padded_len == 128


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
    return [(el.bin, tuple(el.rows)) for el in buf.fifo]


def test_fuzz_against_naive_model():
    rng = np.random.Generator(np.random.PCG64(99))
    buf = new_buffer(capacity=6, max_merge=3)
    naive = NaiveBuffer(16, 8, 3, 6)
    rid = 0
    for _ in range(2000):
        if buf.fifo and rng.random() < 0.4:
            got = buf.pop()
            want = naive.pop()
            assert (got.bin, tuple(got.rows)) == (want[0], tuple(want[1]))
        else:
            length = int(rng.integers(1, 129))
            got = buf.push(rid, length)
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
            buf.push(rid, length)
            rid += 1
        # index entries point at live, non-full elements; one open element per bin
        live = set(map(id, buf.fifo))
        for b, el in buf.index.items():
            assert id(el) in live
            assert el.bin == b
            assert el.size < buf.max_merge
        assert len(buf.index) == len({el.bin for el in buf.index.values()})
        assert len(buf.fifo) <= buf.capacity


def worst_touches(touched):
    """The most elements one push or pop touched, over random operations on buffers of
    capacity 4 to 4096; ``touched`` is the set of the touched_elements fixture."""
    worst = 0
    for capacity in (4, 64, 1024, 4096):
        rng = np.random.Generator(np.random.PCG64(5))
        buf = new_buffer(capacity=capacity)
        for i in range(3000):
            touched.clear()
            if buf.fifo and rng.random() < 0.3:
                buf.pop()
            else:
                buf.push(i, int(rng.integers(1, 129)))
            worst = max(worst, len(touched))
    return worst


def test_constant_touches_across_sizes(touched_elements):
    assert worst_touches(touched_elements) <= 2


def scanning_push(self, row, length, now_ms=0.0):
    """LengthAwareBuffer.push with the bin index replaced by a scan of the FIFO: the same
    results, in time linear in the occupancy."""
    b = self.push_bin(length)
    for el in self.fifo:
        if el.bin == b and len(el.rows) < self.max_merge:
            el.rows.append(row)
            return sim.MERGED
    if self.is_full():
        return sim.REJECTED
    self.fifo.append(sim.BufferElement(b, (b + 1) * self.bin_width, [row], now_ms))
    return sim.APPENDED


def test_touch_count_catches_a_scanning_push(monkeypatch, touched_elements):
    monkeypatch.setattr(sim.LengthAwareBuffer, "push", scanning_push)
    assert worst_touches(touched_elements) > 2


# -- service time -------------------------------------------------------------------


def element(size, padded_len, b=None):
    return sim.BufferElement(bin=(padded_len // 8) - 1 if b is None else b,
                             padded_len=padded_len, rows=list(range(size)))


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


@pytest.mark.parametrize("k, full, busy, idle_ms, action", [
    (3, True, 0, 0.0, sim.DROP_ONE),
    (1, True, 0, 0.0, sim.HOLD),
    (2, False, 1, 60_000.0, sim.HOLD),
    (2, False, 1, 120_000.0, sim.ADD_ONE),
    (2, False, 4, 200_000.0, sim.HOLD),
    (2, False, 3, 200_000.0, sim.HOLD),
    (3, False, 1, 200_000.0, sim.HOLD),
], ids=["drop_one_fires_on_full_buffer", "drop_one_respects_min", "add_one_needs_full_window-60s",
        "add_one_needs_full_window-120s", "add_one_needs_idle_majority", "add_one_needs_idle_majority-tie",
        "add_one_respects_max"])
def test_controller_tick_rule(k, full, busy, idle_ms, action):
    """One node, min 1 and max 3 students, a 120 s idle window; 12 groups at k = 1,
    6 at k = 2 and 4 at k = 3. A full buffer holds one element per group; otherwise
    ``busy`` groups run an element and every buffer is empty. Row i of the workload, pushed
    by hand, is 8 * (i + 1) tokens long: one bin each."""
    workload = sim.Workload.from_requests([(i, 0.0, 8 * (i + 1)) for i in range(12)])
    simulation = sim.Simulation(make_cluster(group_size=k), workload, calibrated_factors())
    node = simulation.nodes[0]
    for i in range(simulation.groups if full else busy):
        assert simulation._try_push(node, i, 0.0) == sim.APPENDED
        if not full:
            simulation._dispatch(node, 0.0)
    assert node.buffer.is_full() == full and node.busy == (0 if full else busy)
    now = 200_000.0
    simulation.last_empty = now - idle_ms
    assert simulation.controller_tick(now) == action
    k_after = {sim.DROP_ONE: k - 1, sim.ADD_ONE: k + 1, sim.HOLD: k}[action]
    assert simulation.k == k_after and simulation.k_timeline[-1] == ((0.0, k) if action == sim.HOLD else (now, k_after))
    assert simulation.last_empty == (now if action == sim.ADD_ONE else now - idle_ms)


@pytest.mark.parametrize("k, busy, action", [
    (2, (7, 0), sim.HOLD),     # node 0 runs 7 of 6 groups, as after an add: 0 + 6 idle, 7 busy
    (1, (13, 0), sim.HOLD),    # 0 + 12 idle, 13 busy
    (2, (4, 2), sim.HOLD),     # 2 + 4 idle, 4 + 2 busy: a tie holds
    (2, (4, 1), sim.ADD_ONE),  # 2 + 5 idle, 4 + 1 busy
    (2, (11, 0, 0), sim.ADD_ONE),  # 0 + 6 + 6 idle, 11 busy; counted from -5, node 0 would hold it
], ids=["idle-clamps-at-0", "idle-clamps-at-0-k1", "tie", "idle-majority", "clamp-decides"])
def test_controller_tick_sums_idle_and_busy_over_the_nodes(k, busy, action):
    """One node per busy count, every buffer empty past the idle window; 12 groups per node
    at k = 1, 6 at k = 2. A node's idle groups count from 0, however many of its groups are busy."""
    simulation = sim.Simulation(make_cluster(group_size=k, nodes=len(busy)), sim.Workload.from_requests([]),
                                calibrated_factors())
    for node, b in zip(simulation.nodes, busy):
        node.busy = b
    simulation.last_empty = -simulation.ctl.idle_window_ms
    assert simulation.controller_tick(0.0) == action
    assert simulation.k == (k + 1 if action == sim.ADD_ONE else k)


# -- end-to-end simulation ------------------------------------------------------------


def test_controller_tick_surface_applies_drop():
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=1)
    cluster = make_cluster(replicas_per_gpu=1, gpus_per_node=3, group_size=3, controller=ctl)
    workload = sim.Workload.from_requests([(0, 0.0, 90), (1, 0.0, 20)])  # the rows pushed by hand
    simulation = sim.Simulation(cluster, workload, calibrated_factors())
    node = simulation.nodes[0]
    simulation._try_push(node, 0, 0.0)
    simulation._dispatch(node, 0.0)
    assert node.busy == simulation.groups == 1  # the node's one group is busy
    assert simulation._try_push(node, 1, 0.0) == sim.APPENDED
    assert node.buffer.is_full()
    assert simulation.controller_tick(1.0) == sim.DROP_ONE
    assert simulation.k == 2
    assert node.buffer.capacity == sim.group_count(2, 3, 1)
    assert simulation.k_timeline[-1] == (1.0, 2)


def test_single_request_latency_is_service_time():
    cluster = make_cluster()
    factors = calibrated_factors()
    workload = sim.Workload.from_requests([sim.Request(0, 5.0, 20)])
    metrics = sim.run_simulation(cluster, workload, factors)
    assert metrics.completed == 1
    el = element(1, 24)  # length 20 -> bin 2 -> padded 24
    expected = sim.service_time(el, cluster.group_size, cluster, factors, active_groups=1)
    assert metrics.avg_latency_ms == pytest.approx(expected, rel=1e-12)
    assert metrics.p95_latency_ms == pytest.approx(expected, rel=1e-12)


def test_two_simultaneous_requests_no_wait():
    cluster = make_cluster()
    factors = calibrated_factors()
    workload = sim.Workload.from_requests([sim.Request(0, 1.0, 10), sim.Request(1, 1.0, 50)])  # different bins
    metrics = sim.run_simulation(cluster, workload, factors)
    assert metrics.completed == 2
    lat = {request_id: completion - arrival for request_id, arrival, completion, _ in rows_of(metrics)}
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
    workload = sim.Workload.from_requests([sim.Request(0, 0.0, 20), sim.Request(1, 0.1, 21), sim.Request(2, 0.2, 22)])
    metrics = sim.run_simulation(cluster, workload, factors)
    assert metrics.completed == 3
    done = completion_by_id(metrics)
    # requests 1 and 2 merged while the single group was busy with request 0
    assert done[1] == done[2]
    assert done[1] > done[0]


def test_elements_dispatch_in_fifo_order():
    ctl = sim.ControllerConfig(max_students=2, accuracy_table=flat_table(2), min_students=2)
    cluster = make_cluster(replicas_per_gpu=1, gpus_per_node=2, group_size=2, controller=ctl)
    factors = calibrated_factors()
    # one long run occupies the single group; three distinct bins queue up
    workload = sim.Workload.from_requests([sim.Request(0, 0.0, 128),
                                        sim.Request(1, 0.1, 8), sim.Request(2, 0.2, 40), sim.Request(3, 0.3, 90)])
    metrics = sim.run_simulation(cluster, workload, factors)
    done = completion_by_id(metrics)
    assert done[1] < done[2] < done[3]


def test_conservation_under_overload():
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=3)
    cluster = make_cluster(replicas_per_gpu=1, gpus_per_node=3, group_size=3, controller=ctl)
    factors = calibrated_factors()
    workload = sim.generate_workload(sim.PoissonSpec(rps=4000.0, duration_ms=500.0), seed=3)
    metrics = sim.run_simulation(cluster, workload, factors)
    assert metrics.completed == metrics.generated == len(workload)
    assert metrics.deferred > 0  # overload actually exercised the retry path


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
    assert list(data) == ["avg_latency_ms", "p95_latency_ms", "throughput_per_gpu", "completed",
                          "generated", "deferred", "direct_starts", "dispatches", "requests_per_dispatch",
                          "buffer_wait_p50_ms", "buffer_wait_p95_ms", "buffer_wait_max_ms", "max_buffer_occupancy",
                          "student_number_timeline", "accuracy_timeline"]
    for value in (data["avg_latency_ms"], data["p95_latency_ms"]):
        assert round(value, 6) == value
    for key in ("requests_per_dispatch", "buffer_wait_p50_ms", "buffer_wait_p95_ms", "buffer_wait_max_ms"):
        assert data[key] is None or round(data[key], 6) == data[key]
    assert data["generated"] == data["completed"] == len(workload)


def test_run_counts_explain_where_requests_waited():
    # two groups: requests 0 and 1 start at once; 2 and 3 arrive while both run and wait
    # as one merged element, 4 as a second element in another bin, which fills the buffer
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=3)
    cluster = make_cluster(replicas_per_gpu=2, gpus_per_node=3, group_size=3, controller=ctl)
    workload = sim.Workload.from_requests([sim.Request(0, 0.0, 20), sim.Request(1, 0.01, 128), sim.Request(2, 0.1, 21),
                                        sim.Request(3, 0.2, 22), sim.Request(4, 0.25, 100)])
    simulation = sim.Simulation(cluster, workload, calibrated_factors())
    m = simulation.run()
    done = completion_by_id(m)
    assert done[2] == done[3]  # merged
    assert (m.generated, m.deferred, m.direct_starts, m.dispatches) == (5, 0, 2, 2)
    assert m.requests_per_dispatch == 1.5 and m.max_buffer_occupancy == 2
    waits = sorted(simulation.element_waits)
    # the merged element, made by request 2, starts when the first group frees
    assert waits[:2] == [0.0, 0.0] and min(done[0], done[1]) - 0.1 in waits[2:]
    assert (m.buffer_wait_p50_ms, m.buffer_wait_p95_ms, m.buffer_wait_max_ms) == (waits[2], waits[3], waits[3])
    data = sim.metrics_to_json_dict(m)
    assert (data["generated"], data["deferred"], data["direct_starts"], data["dispatches"]) == (5, 0, 2, 2)
    assert (data["requests_per_dispatch"], data["max_buffer_occupancy"]) == (1.5, 2)
    assert data["buffer_wait_max_ms"] == round(waits[3], 6)


def test_a_run_without_buffered_elements_has_no_wait_figures():
    m = sim.run_simulation(make_cluster(), sim.Workload.from_requests([sim.Request(0, 5.0, 20)]), calibrated_factors())
    assert (m.direct_starts, m.dispatches, m.max_buffer_occupancy) == (1, 0, 0)
    assert m.requests_per_dispatch is m.buffer_wait_p50_ms is m.buffer_wait_p95_ms is m.buffer_wait_max_ms is None


def test_empty_workload_yields_null_metrics():
    cluster = make_cluster()
    factors = calibrated_factors()
    metrics = sim.run_simulation(cluster, sim.Workload.from_requests([]), factors)
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
    parts, offset = [], 0.0
    for i, (rps, dur) in enumerate(phases):
        parts.append(sim.generate_workload(sim.PoissonSpec(rps=rps, duration_ms=dur), seed=100 + i,
                                           offset_ms=offset, first_id=sum(map(len, parts))))
        offset += dur
    metrics = sim.run_simulation(cluster, sim.Workload.concatenate(parts), factors)
    ks = [k for _, k in metrics.student_number_timeline]
    assert min(ks) < 3, f"controller never dropped a student: {metrics.student_number_timeline}"
    assert ks[-1] == 3, f"student count did not recover: {metrics.student_number_timeline}"
    # accuracy timeline tracks the table at every switch
    for (_, k), (_, acc) in zip(metrics.student_number_timeline, metrics.accuracy_timeline):
        assert acc == pytest.approx(flat_table().val_accuracy(k))


def test_nearest_rank_percentile():
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert sim.nearest_rank(values, 95.0) == 10.0
    assert sim.nearest_rank(values, 50.0) == 5.0
    assert sim.nearest_rank(np.array([7.0]), 95.0) == 7.0


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


def burst_run(nodes, batch_timeout_ms, overload, arrange=None):
    """Digest of a burst, lull, burst run: a 20 ms idle window lets the controller
    drop and add students; over load defers pushes. ``arrange`` may reorder or
    retime the workload before it is served."""
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=1,
                               idle_window_ms=20.0)
    cluster = make_cluster(controller=ctl, nodes=nodes, replicas_per_gpu=1,
                           batch_timeout_ms=batch_timeout_ms)
    rps = (12_000.0 if overload else 1_200.0) * nodes
    parts, offset = [], 0.0
    for i, (phase_rps, duration) in enumerate([(rps, 50.0), (rps / 20, 100.0), (rps, 30.0)]):
        spec = sim.PoissonSpec(rps=phase_rps, duration_ms=duration)
        parts.append(sim.generate_workload(spec, seed=10 * nodes + i, offset_ms=offset,
                                           first_id=sum(map(len, parts))))
        offset += duration
    workload = sim.Workload.concatenate(parts)
    if arrange is not None:
        workload = arrange(workload)
    m = sim.run_simulation(cluster, workload, calibrated_factors())
    blob = json.dumps([list(zip(m.columns.request_id.tolist(), m.columns.completion_ms.tolist())),
                       m.student_number_timeline, m.deferred])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("nodes, batch_timeout_ms, overload", list(PINNED_OUTPUTS))
def test_outputs_match_pinned_hashes(nodes, batch_timeout_ms, overload):
    assert burst_run(nodes, batch_timeout_ms, overload) == PINNED_OUTPUTS[(nodes, batch_timeout_ms, overload)]


# the same digests for shuffled workloads whose arrival times are rounded down to
# 0.5 ms, so arrivals tie with each other, with heartbeats and with waiting-queue
# timers; recorded with every arrival pushed into the event heap in workload order
PINNED_SHUFFLED = {
    (1, None, False): "0e75d9d7fc6cad41",
    (1, None, True): "05011ffe210c4edd",
    (1, 2.0, False): "6566b44a8e7715af",
    (1, 2.0, True): "46258b650065e330",
    (3, None, False): "83c793e81757ede6",
    (3, None, True): "e1fe90d4835876a2",
    (3, 2.0, False): "66b9ffa9687ebd53",
    (3, 2.0, True): "8c6cd1a034018b6a",
}


def shuffled_with_ties(workload):
    order = np.random.default_rng(len(workload)).permutation(len(workload))
    return sim.Workload(workload.request_id[order], np.floor(workload.arrival_ms[order] * 2.0) / 2.0,
                        workload.length_tokens[order])


@pytest.mark.parametrize("nodes, batch_timeout_ms, overload", list(PINNED_SHUFFLED))
def test_shuffled_tied_arrivals_match_pinned_hashes(nodes, batch_timeout_ms, overload):
    digest = burst_run(nodes, batch_timeout_ms, overload, arrange=shuffled_with_ties)
    assert digest == PINNED_SHUFFLED[(nodes, batch_timeout_ms, overload)]


def test_heartbeats_go_on_through_a_gap_between_arrivals():
    # the burst drops students; the heap then holds only the heartbeat until the
    # late arrival, so beats must go on while arrivals remain for it to be served
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=1,
                               idle_window_ms=20.0)
    cluster = make_cluster(controller=ctl, replicas_per_gpu=1)
    drawn = sim.generate_workload(sim.PoissonSpec(rps=12_000.0, duration_ms=50.0), seed=3)
    workload = sim.Workload.concatenate([drawn, sim.Workload.from_requests([sim.Request(len(drawn), 5_000.0, 16)])])
    m = sim.run_simulation(cluster, workload, calibrated_factors())
    assert m.completed == len(workload)
    # dropped to one student in the burst, re-added at heartbeats inside the gap
    assert m.student_number_timeline[2:5] == [(m.student_number_timeline[2][0], 1), (100.0, 2), (200.0, 3)]


def gap_workload(nodes, seed, gap_ms):
    """A 12k rps burst per node for 50 ms, then one request per node after a long gap."""
    drawn = sim.generate_workload(sim.PoissonSpec(rps=12_000.0 * nodes, duration_ms=50.0), seed=seed)
    late = sim.Workload.from_requests([sim.Request(len(drawn) + i, gap_ms + 37.5 * i, 16 + i) for i in range(nodes)])
    return sim.Workload.concatenate([drawn, late])


def served(cluster, workload, factors):
    m = sim.run_simulation(cluster, workload, factors)
    return ([row[:3] for row in rows_of(m)], m.student_number_timeline, m.accuracy_timeline, m.deferred)


@pytest.mark.parametrize("nodes", [1, 3])
@pytest.mark.parametrize("batch_timeout_ms", [None, 2.0, 2_000.0])
@pytest.mark.parametrize("idle_window_ms, bin_width", [(20.0, 8), (250.0, 8), (20.0, 4096)])
def test_quiet_heartbeats_are_skipped_without_changing_the_run(monkeypatch, nodes, batch_timeout_ms,
                                                               idle_window_ms, bin_width):
    # the reference beats every 100 ms; the run under test jumps over beats that cannot act.
    # A 2 s waiting-queue timeout keeps part-filled elements buffered across many quiet beats
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=1,
                               idle_window_ms=idle_window_ms)
    cluster = make_cluster(controller=ctl, nodes=nodes, replicas_per_gpu=1,
                           batch_timeout_ms=batch_timeout_ms, bin_width=bin_width)
    workload = gap_workload(nodes, seed=nodes, gap_ms=7_000.0)
    beats = []
    beat_state = sim.Simulation._beat_state

    def counting(self):
        beats.append(bool(self.nonempty))
        return beat_state(self)

    monkeypatch.setattr(sim.Simulation, "_beat_state", counting)
    got = served(cluster, workload, calibrated_factors())
    skipping, beats[:] = beats[:], []
    monkeypatch.setattr(sim.Simulation, "_last_quiet_beat", lambda self, now: -float("inf"))
    expected = served(cluster, workload, calibrated_factors())
    assert got == expected
    assert len(got[1]) > 3  # students were dropped and added back
    # each beat reads its state twice; with short service times most of the gap is quiet
    assert 3 * len(skipping) < len(beats) if bin_width == 8 else len(skipping) <= len(beats)
    if batch_timeout_ms == 2_000.0 and bin_width == 8:  # beats were skipped while a buffer held elements
        assert 3 * sum(skipping) < sum(beats)


def test_a_waiting_queue_head_is_due_at_its_own_timer_far_from_0_ms():
    # near 1e8 ms, now - created_ms at the head's timer rounds below the timeout less
    # the 1e-9 tolerance; the head used to wait for the next heartbeat, 99.9 ms later
    arrival, timeout = 1e8 + 0.1, 0.3
    assert (arrival + timeout) - arrival < timeout - 1e-9
    simulation = sim.Simulation(make_cluster(batch_timeout_ms=timeout),
                                sim.Workload.from_requests([sim.Request(0, arrival, 16)]), calibrated_factors())
    simulation.run()
    assert simulation.element_waits.tolist() == [(arrival + timeout) - arrival]


def test_drops_go_on_one_per_heartbeat_while_a_buffer_stays_full(monkeypatch):
    # one group at every k: a drop leaves the buffer full, so each later beat drops
    # again until min_students, although the next event is a minute away
    ctl = sim.ControllerConfig(max_students=5, accuracy_table=flat_table(m=5), min_students=1,
                               idle_window_ms=20.0)
    cluster = make_cluster(controller=ctl, gpus_per_node=1, group_size=5, replicas_per_gpu=1,
                           bin_width=4096, num_bins=16)
    workload = sim.Workload.from_requests([sim.Request(0, 0.5, 60_000), sim.Request(1, 1.0, 60_000)])
    got = served(cluster, workload, calibrated_factors())
    assert got[1][:5] == [(0.0, 5), (0.5, 4), (1.0, 3), (100.0, 2), (200.0, 1)]
    assert got[0][0][2] > 50_000.0
    monkeypatch.setattr(sim.Simulation, "_last_quiet_beat", lambda self, now: -float("inf"))
    assert served(cluster, workload, calibrated_factors()) == got


def test_integer_arrival_times_are_written_as_floats():
    # the run above with arrivals given as ints, at whose times students are dropped
    ctl = sim.ControllerConfig(max_students=5, accuracy_table=flat_table(m=5), min_students=1,
                               idle_window_ms=20.0)
    cluster = make_cluster(controller=ctl, gpus_per_node=1, group_size=5, replicas_per_gpu=1,
                           bin_width=4096, num_bins=16)
    workload = sim.Workload.from_requests([sim.Request(0, 1, 60_000), sim.Request(1, 2, 60_000)])
    data = sim.metrics_to_json_dict(sim.run_simulation(cluster, workload, calibrated_factors()))
    assert json.dumps(data["student_number_timeline"][:3]) == "[[0.0, 5], [1.0, 4], [2.0, 3]]"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_arrival_rejected(bad):
    workload = sim.Workload.from_requests([sim.Request(0, 1.0, 8), sim.Request(1, bad, 8), sim.Request(2, 2.0, 8)])
    with pytest.raises(ValueError, match="arrival_ms"):
        sim.Simulation(make_cluster(), workload, calibrated_factors())


@pytest.mark.parametrize("earliest, refused", [(-2.0**53, True), (-1e300, True), (-(2.0**53 - 1), False)])
def test_an_arrival_at_or_below_minus_2_53_ms_is_refused(earliest, refused):
    # from 2**53 ms in magnitude on, a float millisecond has no integer resolution
    workload = sim.Workload.from_requests([sim.Request(0, 1.0, 8), sim.Request(1, earliest, 8)])
    if refused:
        with pytest.raises(FloatingPointError, match=r"2\*\*53"):
            sim.Simulation(make_cluster(), workload, calibrated_factors())
    else:
        assert sim.Simulation(make_cluster(), workload, calibrated_factors()).run().completed == 2


class _Forgetful(dict):
    """A memo that stores nothing, so every dispatch calls service_time."""

    def __setitem__(self, key, value):
        pass


def test_service_time_memo_models_each_shape_once(monkeypatch):
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=1,
                               idle_window_ms=20.0)
    cluster = make_cluster(controller=ctl, nodes=3, replicas_per_gpu=1, batch_timeout_ms=2.0)
    parts, offset = [], 0.0
    for i, (rps, duration) in enumerate([(36_000.0, 50.0), (1_800.0, 100.0), (36_000.0, 30.0)]):
        parts.append(sim.generate_workload(sim.PoissonSpec(rps=rps, duration_ms=duration), seed=30 + i,
                                           offset_ms=offset, first_id=sum(map(len, parts))))
        offset += duration
    workload = sim.Workload.concatenate(parts)
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
    assert len(plain.student_number_timeline) > 2 and plain.deferred > 0
    assert [(i, t) for i, _, t, _ in rows_of(memoised)] == [(i, t) for i, _, t, _ in rows_of(plain)]
    assert memoised.student_number_timeline == plain.student_number_timeline
    assert memoised.deferred == plain.deferred


def reference_latency_csv(rows, path):
    """The csv.writer version of write_latency_csv, kept as its oracle, of rows_of tuples."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["request_id", "arrival_ms", "completion_ms", "latency_ms", "length_tokens"])
        for request_id, arrival, completion, length in rows:
            writer.writerow([request_id, f"{arrival:.6f}", f"{completion:.6f}", f"{completion - arrival:.6f}", length])


def columns_of(rows):
    """The rows as columns, built as _metrics builds them: an id or length outside int64 raises OverflowError."""
    return sim.LatencyColumns(*(np.fromiter((row[j] for row in rows), dtype, len(rows))
                                for j, dtype in enumerate((np.int64, np.float64, np.float64, np.int64))))


def assert_csv_matches_reference(tmp_path, rows):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    sim.write_latency_csv(columns_of(rows), got)
    reference_latency_csv(rows, want)
    assert got.read_bytes() == want.read_bytes()


def test_latency_csv_bytes_equal_csv_writer(tmp_path):
    workload = sim.generate_workload(sim.PoissonSpec(rps=3_000.0, duration_ms=300.0), seed=4)
    records = rows_of(sim.run_simulation(make_cluster(), workload, calibrated_factors()))
    records += [(10**12, 0.0, 1e-7, 1), (-1, 1e15 / 3, 1e16, 128), (7, 0.1 + 0.2, 0.3, 5)]
    # rows are written in chunks: cross two chunk boundaries and end inside a third chunk
    chunk = sim.LATENCY_CSV_CHUNK
    rng = np.random.default_rng(12)
    arrivals = np.cumsum(rng.exponential(0.5, 2 * chunk + 123)).tolist()
    many = [(i, t, t + w, int(n)) for i, (t, w, n) in enumerate(
        zip(arrivals, rng.exponential(40.0, len(arrivals)).tolist(), rng.integers(1, 129, len(arrivals))))]
    assert len(many) > 2 * chunk and len(many) % chunk
    for rows in (records, [], many):
        assert_csv_matches_reference(tmp_path, rows)


def test_simulate_writes_the_columns_the_records_hold(tmp_path):
    workload = sim.generate_workload(sim.PoissonSpec(rps=3_000.0, duration_ms=300.0), seed=4)
    m = sim.run_simulation(make_cluster(), workload, calibrated_factors())
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    sim.write_latency_csv(m.columns, got)
    reference_latency_csv(rows_of(m), want)
    assert got.read_bytes() == want.read_bytes()
    assert m.columns.request_id.dtype == m.columns.length_tokens.dtype == np.int64


def _just_past(x, toward):
    return float(np.nextafter(x, toward))


# %.6f has exact ties only at odd multiples of 1/128; k + 0.0000005 is no float, so it and
# its neighbours round either way, and for small k f * 10**6 often rounds onto a tie that the
# exact product is not; 2**53 and up hold no fraction
_times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e7, max_value=1e7),
    st.builds(lambda k, m: k + m / 128.0, st.integers(-10**6, 10**6), st.integers(0, 63).map(lambda j: 2 * j + 1)),
    st.builds(lambda k, j: k + (j + 0.5) / 1e6, st.integers(-8, 8), st.integers(0, 999_999)),
    st.builds(_just_past, st.integers(-10**6, 10**6).map(lambda k: k + 0.0000005),
              st.sampled_from([-np.inf, np.inf])),
    st.builds(_just_past, st.integers(0, 10**6).map(lambda k: k + 0.9999995), st.sampled_from([-np.inf, np.inf])),
    st.sampled_from([0.0, -0.0, -1e-9, 2.0**53, 2.0**53 + 2, 2.0**63 - 1024, -(2.0**63 - 1024),
                     9.999999999999999e18]),
    st.floats(min_value=2.0**53, max_value=2.0**63 - 1024).flatmap(lambda x: st.sampled_from([x, -x])),
)
_ints = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from([10**12, -1, 0, -2**63, 2**63 - 1]))
_records = st.tuples(_ints, _times, _times, _ints)
# one such row puts the columns outside the writer's domain: a time of 2**63 or more in magnitude,
# or an id or length outside int64
_beyond_int64 = st.one_of(st.integers(2**63, 2**70), st.integers(-2**70, -2**63 - 1))
_outside = st.one_of(
    st.tuples(_ints, st.sampled_from([2.0**63, -2.0**63, 1e300, 2.0**64]), _times, _ints),
    st.tuples(_beyond_int64, _times, _times, _ints),
    st.tuples(_ints, _times, _times, _beyond_int64),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_records, max_size=40), outside=st.none() | _outside, copies=st.sampled_from([0, 1, 150]))
@example(rows=[], outside=None, copies=0)
@example(rows=[(7, 2.5e-6, 3.0016235, 5)], outside=(2**63, 0.5, 1.0, 3), copies=1)
# an arrival and a completion past 2**63 ms whose latency is 0
@example(rows=[(0, 9.999999999999999e18, 9.999999999999999e18, 1)], outside=None, copies=0)
def test_latency_csv_writer_equals_the_csv_writer_oracle(tmp_path_factory, rows, outside, copies):
    # a block of plain rows ahead of the drawn ones moves them across a chunk boundary. Columns
    # holding a row outside the numpy formatting's domain, drawn (an arrival, a completion or a
    # latency of 2**63 or more in magnitude) or added last, are refused before the file is opened,
    # or cannot be built as int64
    chunk = sim.LATENCY_CSV_CHUNK
    plain = [(i, i / 3, i / 3 + 1.5, 1 + i % 128) for i in range(chunk - copies)] if copies else []
    rows = plain + rows * max(1, copies) + ([outside] if outside else [])
    tmp_path = tmp_path_factory.mktemp("csv")
    if outside or any(max(abs(a), abs(c), abs(c - a)) >= 2.0**63 for _, a, c, _ in rows):
        with pytest.raises((ValueError, OverflowError)):
            sim.write_latency_csv(columns_of(rows), tmp_path / "got.csv")
        assert not (tmp_path / "got.csv").exists()
    else:
        assert_csv_matches_reference(tmp_path, rows)


@pytest.mark.parametrize("column, values", [
    ("request_id", np.array([0.0, 1.0])), ("length_tokens", np.array([3, 4], dtype=object)),
    ("arrival_ms", np.array([0.5, np.nan])), ("completion_ms", np.array([1.5, np.inf])),
])
def test_latency_csv_writer_refuses_columns_outside_its_domain(tmp_path, column, values):
    columns = sim.LatencyColumns(np.array([0, 1]), np.array([0.5, 1.0]), np.array([1.5, 2.0]), np.array([3, 4]))
    with pytest.raises(ValueError, match="int64"):
        sim.write_latency_csv(columns._replace(**{column: values}), tmp_path / "got.csv")
    assert not (tmp_path / "got.csv").exists()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("batch_timeout_ms", [None, 2.0])
def test_columns_are_ordered_by_arrival_then_id(seed, batch_timeout_ms):
    # the oracle is the (arrival_ms, request_id) tuple-key sort of the requests in completion
    # order; the workload is shuffled, ties arrivals at 0.5 ms, numbers requests out of
    # arrival order with repeated ids and holds exact repeats of some requests
    rng = np.random.default_rng(seed)
    drawn = sim.generate_workload(sim.PoissonSpec(rps=6_000.0, duration_ms=200.0), seed=seed)
    ids = rng.integers(0, len(drawn) // 3, size=len(drawn)).tolist()
    workload = [sim.Request(i, float(np.floor(r.arrival_ms * 2.0)) / 2.0, r.length_tokens)
                for i, r in zip(ids, drawn.requests())]
    workload += workload[:40]
    workload = [workload[j] for j in rng.permutation(len(workload))]
    simulation = sim.Simulation(make_cluster(nodes=2, batch_timeout_ms=batch_timeout_ms),
                                sim.Workload.from_requests(workload), calibrated_factors())
    got = [(i, a.hex(), t.hex(), n) for i, a, t, n in rows_of(simulation.run())]
    completion_ms = [t for t, size in zip(simulation.finish_ms, simulation.finish_sizes) for _ in range(size)]
    finished = [(r.id, r.arrival_ms, t, r.length_tokens)
                for r, t in zip(map(workload.__getitem__, simulation.finished), completion_ms)]
    want = [(i, a.hex(), t.hex(), n) for i, a, t, n in sorted(finished, key=itemgetter(1, 0))]
    assert got == want
    keys = [(arrival, request_id) for request_id, arrival, _, _ in got]
    assert len(set(arrival for _, arrival in keys)) < len(got)  # tied arrivals
    assert len(set(keys)) < len(got)  # whole-key ties, kept in completion order
    assert [request_id for _, request_id in keys] != sorted(request_id for _, request_id in keys)
    # whole-key ties whose completions differ, so their order is tested
    assert any(a[:2] == b[:2] and a[2] != b[2] for a, b in zip(got, got[1:]))


def fanout_node_visits(monkeypatch, nodes):
    """Run ``nodes`` nodes at 200 rps each for 300 ms and count every read of a node's buffer,
    through a node class that counts them. Return the reads and their bound: 2 per arrival
    or completion, plus 2 per node towards the reads made once per run, by the constructor
    and the end-of-run recount."""
    visits = [0]

    class CountingNode(sim._Node):
        @property
        def buffer(self):
            visits[0] += 1
            return self._buffer

        @buffer.setter
        def buffer(self, buffer):
            self._buffer = buffer

    monkeypatch.setattr(sim, "_Node", CountingNode)
    ctl = sim.ControllerConfig(max_students=3, accuracy_table=flat_table(), min_students=3)
    workload = sim.generate_workload(sim.PoissonSpec(rps=nodes * 200.0, duration_ms=300.0), seed=9)
    simulation = sim.Simulation(make_cluster(controller=ctl, nodes=nodes), workload, calibrated_factors())
    metrics = simulation.run()
    assert metrics.deferred == 0 and len(metrics.student_number_timeline) == 1
    return visits[0], 2 * (len(workload) + len(simulation.finish_ms)) + 2 * nodes


@pytest.mark.parametrize("nodes", [4, 32])
def test_each_event_visits_at_most_one_node(monkeypatch, nodes):
    visits, bound = fanout_node_visits(monkeypatch, nodes)
    assert 0 < visits <= bound


def test_visit_count_catches_a_boundary_that_visits_every_node(monkeypatch):
    boundary = sim.Simulation._boundary

    def sweeping_boundary(self, now, own):  # a dispatch sweep over every node at every event
        boundary(self, now, own)
        for node in self.nodes:
            if node.buffer.fifo and node.busy < self.groups:
                self._dispatch(node, now)

    monkeypatch.setattr(sim.Simulation, "_boundary", sweeping_boundary)
    visits, bound = fanout_node_visits(monkeypatch, 32)
    assert visits > bound


def test_simulation_instances_hold_no_dict():
    # CPython 3.11 shares an instance dict's keys only up to 30 of them; past that the dict
    # grows from 296 to 1,584 bytes and every attribute read of the event loop slows by ~5 %
    simulation = sim.Simulation(make_cluster(), sim.Workload.from_requests([]), calibrated_factors())
    assert not hasattr(simulation, "__dict__")
    assert [name for name in sim.Simulation.__slots__ if not hasattr(simulation, name)] == []


def test_broken_counter_fails_end_of_run_check():
    # a phantom index for node 1, whose buffer stays empty: every request here starts
    # directly, so no pop discards it. A miscounted full_buffers would heal, since the
    # drop of a student it triggers recounts it
    workload = sim.generate_workload(sim.PoissonSpec(rps=500.0, duration_ms=200.0), seed=11)
    simulation = sim.Simulation(make_cluster(nodes=2), workload, calibrated_factors())
    simulation.nonempty.add(1)
    with pytest.raises(RuntimeError, match="nonempty == recount"):
        simulation.run()


# -- direct start against the buffered path -------------------------------------------


class BufferedArrivals(sim.Simulation):
    """The oracle of the direct start: every arrival is pushed into its node's buffer
    (or deferred) and reaches a group only through the boundary's dispatch."""

    def _arrive(self, node, row, now):
        if node.retry or self._try_push(node, row, now) == sim.REJECTED:
            self.deferred += 1
            node.retry.append(row)
            self.retrying.add(node.index)
        self._boundary(now, node)


def end_state(simulation):
    """Everything a run leaves behind, floats as their exact hex strings."""
    def hexed(values):
        return [float.hex(v) for v in values]

    m = simulation.run()
    return ([(i, a.hex(), t.hex(), n) for i, a, t, n in rows_of(m)],
            [(t.hex(), k) for t, k in m.student_number_timeline], m.deferred,
            hexed(simulation.element_waits), simulation._seq, simulation.last_empty.hex(),
            simulation.buffered, sorted(simulation.service_ms.items()))


def phased_workload(nodes, rps_per_node, seed, skewed=False):
    """A burst, a lull longer than a 20 ms idle window, and a second burst. A skewed
    workload gives node 0 only 128-token requests, which take longer to serve, so
    node 0 can hold deferred requests while another node idles."""
    parts, offset = [], 0.0
    for i, (rps, duration) in enumerate([(rps_per_node, 15.0), (rps_per_node / 20, 50.0),
                                         (rps_per_node, 10.0)]):
        parts.append(sim.generate_workload(sim.PoissonSpec(rps=rps * nodes, duration_ms=duration),
                                           seed + i, offset_ms=offset, first_id=sum(map(len, parts))))
        offset += duration
    workload = sim.Workload.concatenate(parts)
    if skewed:  # the workload is served round-robin in arrival order
        workload.length_tokens[::nodes] = 128
    return workload


def direct_start_cluster(nodes, gpus_per_node, replicas_per_gpu, max_merge, pad_to_max, batch_timeout_ms,
                         students=3):
    ctl = sim.ControllerConfig(max_students=students, accuracy_table=flat_table(students), min_students=1,
                               idle_window_ms=20.0)
    return make_cluster(controller=ctl, nodes=nodes, group_size=students, gpus_per_node=gpus_per_node,
                        replicas_per_gpu=replicas_per_gpu, max_merge=max_merge, pad_to_max=pad_to_max,
                        batch_timeout_ms=batch_timeout_ms)


@settings(max_examples=40, deadline=None)
@given(nodes=st.integers(1, 4), gpus_per_node=st.sampled_from([1, 2, 4]),
       replicas_per_gpu=st.sampled_from([1, 3]), max_merge=st.sampled_from([1, 4]),
       pad_to_max=st.booleans(), batch_timeout_ms=st.sampled_from([None, 2.0]),
       rps_per_node=st.sampled_from([1_200.0, 6_000.0, 40_000.0]), skewed=st.booleans(),
       seed=st.integers(0, 2**16))
# node 0 has deferred requests while node 1 idles; the direct start must wait for them
@example(nodes=2, gpus_per_node=2, replicas_per_gpu=3, max_merge=4, pad_to_max=False, batch_timeout_ms=None,
         rps_per_node=40_000.0, skewed=True, seed=5)
def test_direct_start_equals_buffered_arrivals(nodes, gpus_per_node, replicas_per_gpu, max_merge, pad_to_max,
                                               batch_timeout_ms, rps_per_node, skewed, seed):
    cluster = direct_start_cluster(nodes, gpus_per_node, replicas_per_gpu, max_merge, pad_to_max,
                                   batch_timeout_ms)
    workload = phased_workload(nodes, rps_per_node, seed, skewed)
    factors = calibrated_factors()
    assert end_state(sim.Simulation(cluster, workload, factors)) == \
        end_state(BufferedArrivals(cluster, workload, factors))


@pytest.mark.parametrize("gpus_per_node, batch_timeout_ms, rps_per_node, some_direct", [
    (4, None, 40_000.0, True),   # overload: pushes are deferred and k is dropped and added back
    (4, None, 1_200.0, True),
    (1, None, 1_200.0, False),   # one group at every k: a push would fill the buffer
    (4, 2.0, 1_200.0, False),    # waiting-queue mode buffers every request
])
def test_direct_start_runs_only_where_it_may(gpus_per_node, batch_timeout_ms, rps_per_node,
                                             some_direct):
    cluster = direct_start_cluster(3, gpus_per_node, 1, 4, False, batch_timeout_ms)
    workload = phased_workload(3, rps_per_node, seed=7)
    simulation = sim.Simulation(cluster, workload, calibrated_factors())
    got = end_state(simulation)
    direct = simulation.direct_starts
    assert (0 < direct < len(workload)) if some_direct else not direct
    if rps_per_node > 2_000.0:
        assert got[2] > 0 and len(got[1]) > 3  # deferred pushes, k dropped and added back
    assert got == end_state(BufferedArrivals(cluster, workload, calibrated_factors()))


def test_direct_start_waits_while_a_full_buffer_drops_a_student():
    # two groups per node at k = 4 and at k = 3: the drop at 0.47 ms leaves node 0's
    # buffer full, so the tick of request 7, which finds node 1 idle, drops again and
    # every node is swept; a direct start there would skip node 0's two queued elements
    R = sim.Request
    workload = sim.Workload.from_requests([R(0, 0.0, 128), R(1, 0.0, 8), R(2, 0.0, 128), R(3, 0.0, 8),
                                        R(4, 0.45, 8), R(5, 0.46, 8), R(6, 0.47, 8), R(7, 0.48, 8)])
    cluster = direct_start_cluster(2, 8, 1, 1, False, None, students=4)
    got = end_state(sim.Simulation(cluster, workload, calibrated_factors()))
    assert got[1][:3] == [((0.0).hex(), 4), ((0.47).hex(), 3), ((0.48).hex(), 2)]
    assert got == end_state(BufferedArrivals(cluster, workload, calibrated_factors()))


def test_the_event_loop_builds_no_request(monkeypatch):
    # inside the run a request is its workload row: a Request built anywhere in the loop raises
    class NoRequest:
        def __new__(cls, *args, **kwargs):
            raise AssertionError("the event loop built a Request")

    monkeypatch.setattr(sim, "Request", NoRequest)
    cluster = direct_start_cluster(3, 4, 1, 4, False, None)
    workload = phased_workload(3, 40_000.0, seed=7)
    simulation = sim.Simulation(cluster, workload, calibrated_factors())
    m = simulation.run()
    assert m.completed == len(workload) and sorted(simulation.finished) == list(range(len(workload)))
    # requests were pushed, merged and deferred, and some started directly
    assert m.dispatches and m.requests_per_dispatch > 1 and m.deferred and m.direct_starts


@pytest.mark.parametrize("pad_to_max", [False, True])
def test_padded_length_table_pads_as_a_push(pad_to_max):
    cluster = make_cluster(bin_width=8, num_bins=16, pad_to_max=pad_to_max)
    lengths = range(1, cluster.max_len + 11)
    simulation = sim.Simulation(cluster, sim.Workload.from_requests([sim.Request(n, 0.0, n) for n in lengths]),
                                calibrated_factors())
    bin_of = simulation.nodes[0].buffer.bin_of
    want = {n: cluster.max_len if pad_to_max else (bin_of(n) + 1) * cluster.bin_width for n in lengths}
    assert simulation.padded_lens == want
    assert want[cluster.max_len + 10] == cluster.max_len


@pytest.mark.parametrize("pad_to_max", [False, True])
def test_length_below_one_is_refused_before_the_run(pad_to_max):
    workload = sim.Workload.from_requests([sim.Request(0, 0.0, 8), sim.Request(1, 1.0, 0)])
    with pytest.raises(ValueError, match="length must be >= 1"):
        sim.Simulation(make_cluster(pad_to_max=pad_to_max), workload, calibrated_factors())
