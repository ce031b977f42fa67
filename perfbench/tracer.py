"""Spans and counters around the public functions of the studentpar layers.

The wrappers are installed from the benchmark's own files; the program is
not changed. A span records name, start, end, parent span and run id, is
kept in memory and is written out once, when the run ends. Hot leaf calls
(the buffer, ``service_time``, ``PerfModel.latency``, model forward and
backward, ``Optimizer.step``) only add to a call count and a time sum.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

_now = time.perf_counter_ns

PRUNE_BATCH = "distill.accumulate_prefix_gradients"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent index or -1, run id]
        self._open: list[int] = []
        self.counters: dict[str, list[int]] = {}  # name -> [calls, ns]
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.sim_runs: list[dict] = []   # one entry per run_simulation call
        self.run_id = ""

    def span(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, _now(), 0, self._open[-1] if self._open else -1, self.run_id]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                self._open.pop()
            if observe is not None:
                observe(args, out)
            return out
        return wrapper

    def counter(self, name, fn, observe=None):
        tally = self.counters.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _now()
            out = fn(*args, **kwargs)
            tally[1] += _now() - start
            tally[0] += 1
            if observe is not None:
                observe(args, out)
            return out
        return wrapper

    def install(self, cli, dst, nn, pm, sim) -> None:
        """Wrap the layer functions that the CLI chain reaches through module or class lookups."""
        sums = self.sums

        def on_workload(args, out):
            sums["generated_requests"] += len(out)

        def on_simulation(args, out):
            self.sim_runs.append({"run_id": self.run_id, "completed": out.completed,
                                  "avg_latency_ms": out.avg_latency_ms,
                                  "k_changes": len(out.student_number_timeline) - 1})

        def on_push(args, out):
            sums["push_" + out] += 1

        def on_service(args, out):
            size = args[0].size
            sums["dispatched_requests"] += size
            sums["service_ms:" + self.run_id] += out * size
            sums["served:" + self.run_id] += size

        def on_student_backward(args, out):
            if self._open and self.spans[self._open[-1]][0] == PRUNE_BATCH:
                sums["prune_student_backwards"] += 1

        for owner, attr, name, observe in (
            (cli, "cmd_distill", "cli.distill", None),
            (cli, "cmd_prune", "cli.prune", None),
            (cli, "cmd_simulate", "cli.simulate", None),
            (dst, "train_teacher", "distill.train_teacher", None),
            (dst, "sequential_training", "distill.sequential_training", None),
            (dst, "train_one_student", "distill.train_one_student", None),
            (dst, "adaptive_pruning", "distill.adaptive_pruning", None),
            (dst, "accumulate_prefix_gradients", PRUNE_BATCH, None),
            (dst, "save_ensemble", "distill.checkpoint", None),
            (dst, "load_ensemble", "distill.checkpoint", None),
            (dst, "export_accuracy_table", "distill.checkpoint", None),
            (dst, "load_accuracy_table", "distill.checkpoint", None),
            (nn, "save_model", "nnkernel.checkpoint", None),
            (nn, "load_model", "nnkernel.checkpoint", None),
            (sim, "generate_workload", "servesim.generate_workload", on_workload),
            (sim, "run_simulation", "servesim.run_simulation", on_simulation),
            (sim, "write_metrics_json", "servesim.write_outputs", None),
            (sim, "write_latency_csv", "servesim.write_outputs", None),
        ):
            setattr(owner, attr, self.span(name, getattr(owner, attr), observe))
        for owner, attr, name, observe in (
            (nn.TeacherModel, "forward", "nnkernel.teacher_forward", None),
            (nn.TeacherModel, "backward", "nnkernel.teacher_backward", None),
            (nn.StudentModel, "forward", "nnkernel.student_forward", None),
            (nn.StudentModel, "backward", "nnkernel.student_backward", on_student_backward),
            (nn.Optimizer, "step", "nnkernel.optimizer_step", None),
            (dst.EnsembleState, "rep", "distill.ensemble_rep", None),
            (sim.LengthAwareBuffer, "push", "servesim.buffer_push", on_push),
            (sim.LengthAwareBuffer, "pop", "servesim.buffer_pop", None),
            (sim, "service_time", "servesim.service_time", on_service),
            (pm.PerfModel, "latency", "perfmodel.latency", None),
            (sim.Simulation, "controller_tick", "servesim.controller_tick", None),
        ):
            setattr(owner, attr, self.counter(name, getattr(owner, attr), observe))

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
                       "spans": self.spans}, fh)
            fh.write("\n")

    def metrics(self, primary_sim: str | None) -> dict[str, float]:
        """The per-layer metrics of one traced run (times in host s or us, sim_* in simulated ms)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, own, calls = defaultdict(int), defaultdict(int), defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1

        def per_call_us(ns, n):
            return ns / n / 1e3 if n else 0.0

        out: dict[str, float] = {}
        for name in ("cli.distill", "cli.prune", "cli.simulate", "distill.train_teacher",
                     "distill.sequential_training", "distill.adaptive_pruning",
                     "distill.train_one_student", "servesim.run_simulation"):
            out[f"{name}.s"] = incl[name] / 1e9
            out[f"{name}.self_s"] = own[name] / 1e9
        out["distill.train_one_student.calls"] = calls["distill.train_one_student"]
        out[f"{PRUNE_BATCH}.calls"] = calls[PRUNE_BATCH]
        out[f"{PRUNE_BATCH}.us"] = per_call_us(incl[PRUNE_BATCH], calls[PRUNE_BATCH])
        out["distill.backward_per_prune_batch"] = (
            self.sums["prune_student_backwards"] / calls[PRUNE_BATCH] if calls[PRUNE_BATCH] else 0.0)
        out["distill.checkpoint_s"] = incl["distill.checkpoint"] / 1e9
        out["nnkernel.checkpoint_s"] = incl["nnkernel.checkpoint"] / 1e9
        out["servesim.write_outputs_s"] = incl["servesim.write_outputs"] / 1e9
        gen = "servesim.generate_workload"
        out[f"{gen}.s"] = incl[gen] / 1e9
        out[f"{gen}.us_per_request"] = per_call_us(incl[gen], self.sums["generated_requests"])

        for name, (n, ns) in self.counters.items():
            if name != "servesim.controller_tick":
                out[f"{name}.calls"] = n
            out[f"{name}.us"] = per_call_us(ns, n)
        events = self.counters["servesim.controller_tick"][0]
        out["servesim.events"] = events
        out["servesim.us_per_event"] = per_call_us(incl["servesim.run_simulation"], events)
        pushes = self.counters["servesim.buffer_push"][0]
        out["servesim.merge_ratio"] = self.sums["push_merged"] / pushes if pushes else 0.0
        out["servesim.deferred_ratio"] = self.sums["push_rejected"] / pushes if pushes else 0.0
        dispatches = self.counters["servesim.service_time"][0]
        out["servesim.requests_per_dispatch"] = (
            self.sums["dispatched_requests"] / dispatches if dispatches else 0.0)

        # simulated time, from the workload's student-parallel run: latency = wait + service
        run = next((r for r in self.sim_runs if r["run_id"] == primary_sim), None)
        served = self.sums["served:" + primary_sim] if run else 0.0
        service = self.sums["service_ms:" + primary_sim] / served if served else 0.0
        out["servesim.sim_service_ms_mean"] = service
        out["servesim.sim_wait_ms_mean"] = run["avg_latency_ms"] - service if served else 0.0
        out["servesim.k_changes"] = run["k_changes"] if run else 0
        return out
