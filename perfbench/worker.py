"""One benchmark worker: set up, run one workload's CLI jobs once, write ``result.json``.

run.py starts one worker at a time, in the repeat's own directory:

    python3 perfbench/worker.py --workload NAME --seed N --started NS [--trace] [--setup-only]

``--started`` is the CLOCK_MONOTONIC time in ns at which run.py started the
worker, so ``setup_s`` covers the interpreter, the imports and writing the
configs. ``wall_s`` runs from the first CLI call to the end of the last, less
the time of the host-speed probes (hostspeed.py) that untraced repeats take
meanwhile; ``wall_cal_s`` is the sum of the jobs' times scaled by the probes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

import hostspeed
import workloads

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--nodes", type=int, default=workloads.FANOUT_NODES)
    args = parser.parse_args()

    src = workloads.ROOT / "src"
    sys.path.insert(0, str(src))
    import studentpar
    from studentpar import cli, distill, nnkernel, perfmodel, servesim
    if not os.path.realpath(studentpar.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"studentpar imported from {studentpar.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(cli, distill, nnkernel, perfmodel, servesim)

    # the output checks need each simulation's request count
    generated: list[int] = []
    run_simulation = servesim.run_simulation

    def counting_run_simulation(cluster, workload, *rest, **kwargs):
        generated.append(len(workload))
        return run_simulation(cluster, workload, *rest, **kwargs)

    servesim.run_simulation = counting_run_simulation

    jobs = workloads.write_inputs(args.workload, args.seed, args.toy, args.nodes)
    result: dict = {"setup_s": (monotonic_ns() - args.started) / 1e9, "jobs": []}
    if not args.setup_only:
        # traced repeats give per-layer times, which the probes would inflate
        probe = hostspeed.HostSpeed() if tracer is None else None
        if probe is not None:
            probe.start()
        warm = len(probe.samples) if probe is not None else 0
        first = monotonic_ns()
        for label, argv in jobs:
            if tracer is not None:
                tracer.run_id = label
            before = len(generated)
            seen = len(probe.samples) if probe is not None else 0
            start = monotonic_ns()
            try:
                rc = cli.main(argv)
            except Exception:  # a raw traceback counts as a failed CLI call
                traceback.print_exc()
                rc = -1
            result["jobs"].append({"label": label, "rc": rc,
                                   "s": (monotonic_ns() - start) / 1e9,
                                   "generated": generated[before:],
                                   "probes": probe.samples[seen:] if probe is not None else []})
        last = monotonic_ns()
        if probe is not None:
            probe.stop()
            result["wall_s"] = (last - first) / 1e9 - sum(probe.samples[warm:])
            result["wall_cal_s"] = sum(hostspeed.calibrated(job["s"], job["probes"], probe.samples)
                                       for job in result["jobs"])
            result["probe_ms"] = 1e3 * sum(probe.samples) / len(probe.samples)
        else:
            result["wall_s"] = (last - first) / 1e9
        if tracer is not None:
            tracer.write_spans("spans.json")
            result["layers"] = tracer.metrics(workloads.PRIMARY_SIM.get(args.workload))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
