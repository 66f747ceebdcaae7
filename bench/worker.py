"""One repetition of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --t0 T --mode setup|run|trace

`--t0` is the parent's `time.monotonic()` just before it started this
process (the monotonic clock is system-wide), so `setup_s` spans process
start, interpreter and package import, and input generation.  `setup` mode
stops there (the runner's warm-up); `run` also times the workload's
entry-point calls between two host-speed probes and checks their outputs;
`trace` does the same with span wrappers installed over set-up and the
timed section, not over the checks.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback


def speed_probe():
    """Wall time of fixed interpreter and small-array work (about 0.5 s).

    The host's speed drifts by up to 1.7x within seconds to minutes, so each
    repetition times this probe just before and just after its timed section
    and `run_norm` divides `run_s` by the sum; the probe calls no program code.
    """
    import numpy as np

    x = np.random.default_rng(0).normal(size=(128, 32))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1_200_000):
        acc += (i * 0.5) ** 0.5
    for _ in range(170):
        np.argsort(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1), axis=1)
    return time.perf_counter() - t0


def repetition(name, seed, t0, mode):
    from tracer import Tracer
    from workloads import WORKLOADS, load_package

    workload = WORKLOADS[name]
    rec = {"mode": mode, "error": None, "failures": []}
    tracer = Tracer() if mode == "trace" else None
    try:
        load_package()
        # Spans cover set-up and the timed section; the checks run untraced.
        with tracer or contextlib.nullcontext():
            inputs = workload.setup(seed)
            rec["setup_s"] = time.monotonic() - t0
            if mode == "setup":
                return rec
            rec["probe_s"] = speed_probe()
            covered0 = tracer.root_s if tracer else 0.0
            start = time.perf_counter()
            try:
                out = workload.run(inputs)
            finally:  # a run that raised is timed up to the exception
                rec["run_s"] = time.perf_counter() - start
                rec["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
                if tracer:
                    rec["covered_s"] = tracer.root_s - covered0
                rec["probe_s"] += speed_probe()
        rec["summary"] = workload.summary(inputs, out)
        rec["digest"] = workload.digest(out)
        rec["failures"] = workload.check(inputs, out)
    except Exception as exc:  # a failed repetition is counted, not fatal
        traceback.print_exc()
        rec["error"] = {"type": type(exc).__name__, "message": str(exc)}
    finally:
        if tracer:
            rec["spans"] = tracer.report()
            rec["absent"] = tracer.absent
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)
    rec = repetition(args.workload, args.seed, args.t0, args.mode)
    sys.stdout.write(json.dumps(rec) + "\n")


if __name__ == "__main__":
    main()
