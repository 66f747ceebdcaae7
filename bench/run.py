"""progmetric benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload pla_desk|tune_quadratic|batch_hard_large|all
                         [--seed N] [--seconds S] [--trace 0|1]

Untraced (`--trace 0`): within `--seconds`, one discarded warm-up set-up,
then closed-loop repetitions, one process at a time, each a fresh process,
for as long as another one is expected to fit (at least one).  Every
repetition sets up anew, so `setup_s` is the median over repetitions.  The
table gives every end-to-end metric; the last line is one JSON object with
the end-to-end metrics of BENCHMARK.json.  A repetition that raised is
timed up to the exception and counted failed; its time is used only when no
repetition completed.

Traced (`--trace 1`): one untraced and one traced repetition with the same
seed.  The table gives per-span calls and self times with each span's share
of the traced run time, the most a faster span could save; the last line is
one JSON object with the per-layer metrics of BENCHMARK.json.  The two
repetitions must produce bit-identical outputs.

Each run also writes `bench/results/<workload>-seed<N>-trace<T>.json` with
every repetition and an environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

BLAS_THREADS = 1  # at most nproc; one thread keeps repetitions steady
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REP_TIMEOUT_S = 170
MAX_FAILURES_SHOWN = 5

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "run_s": "s", "probe_s": "s", "run_norm": "probe",
    "setup_s": "s", "peak_rss_mb": "MB",
    "train_epochs_per_s": "epochs/s", "proposals_per_s": "1/s",
    "queries_per_s": "1/s", "rank1": "fraction", "map": "fraction",
    "rank1_pca8": "fraction", "map_pca8": "fraction",
    "tune_best": "objective", "failed_frac": "fraction",
}
# The end-to-end metrics BENCHMARK.json gates.  The time gated is run_norm,
# run_s over the host-speed probe timed around it in the same process: on a
# shared host run_s alone spreads by up to a quarter between runs.  A
# workload that trains no model (tune_quadratic) reports the retrieval
# metrics as NOT_APPLICABLE, a constant, so their gate never moves there.
GATED = ("run_norm", "setup_s", "peak_rss_mb", "rank1", "map")
NOT_APPLICABLE = 1.0

# (span, stats) reported as "<span>.<stat>" per-layer metrics.
SPAN_METRICS = (
    ("losses.gbh_select", ("calls", "self_s")),
    ("losses.pairwise_distances", ("self_s",)),
    ("losses.composite_loss", ("self_s",)),
    ("losses.composite_loss_grad", ("self_s",)),
    ("losses.batch_hard_grad", ("self_s",)),
    ("trainer.batch_loss_and_grads", ("calls", "self_s")),
    ("model.forward", ("self_s",)),
    ("model.forward_with_cache", ("self_s",)),
    ("model.backward", ("self_s",)),
    ("model.adam_step", ("self_s", "failed")),
    ("sampler.sample", ("calls", "self_s")),
    ("evaluation.evaluate", ("calls", "self_s")),
    ("evaluation.pca_reduce", ("self_s",)),
    ("evaluation.pca_apply", ("self_s",)),
    ("bayes_opt.fit_gp", ("calls", "self_s", "failed")),
    ("bayes_opt.propose", ("calls", "self_s", "failed")),
    ("bayes_opt.kernel", ("calls", "self_s")),
    ("trainer.explore", ("calls", "self_s")),
    ("trainer.snapshot", ("self_s",)),
    ("trainer.restore", ("self_s",)),
    ("trainer.train_epochs", ("self_s",)),
    ("trainer.class_ids_for", ("self_s",)),
    ("synthetic.generate", ("self_s",)),
    ("synthetic.split", ("self_s",)),
    ("tuning.run_tuning", ("self_s",)),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "failed": "count"}
DERIVED_UNITS = {
    "losses.gbh_select.calls_per_batch": "calls/batch",
    "bayes_opt.kernel.calls_per_proposal": "calls/proposal",
    "trainer.kept_epoch_frac": "fraction",
    "trainer.epochs_over_budget": "epochs",
    "trace.overhead_frac": "fraction",
    "trace.covered_frac": "fraction",
}


def per_layer_units():
    units = {f"{span}.{stat}": STAT_UNITS[stat]
             for span, stats in SPAN_METRICS for stat in stats}
    units.update(DERIVED_UNITS)
    return units


class FatalError(RuntimeError):
    """The benchmark cannot run at all (no program, or set-up fails)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn(workload, seed, mode):
    """Run one worker process to completion; returns its record and wall time."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec = {"error": {"type": "Timeout",
                         "message": f"repetition exceeded {REP_TIMEOUT_S} s"}}
    else:
        try:
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            rec = {"error": {"type": "WorkerCrashed",
                             "message": proc.stderr.strip()[-2000:]}}
        if rec.get("error"):
            sys.stderr.write(proc.stderr)
    rec["wall_s"] = time.monotonic() - t0
    rec.setdefault("failures", [])
    return rec


def warm_up(workload, seed):
    """One set-up-only process, discarded: fills the OS and bytecode caches."""
    rec = spawn(workload, seed, "setup")
    if rec.get("error"):
        raise FatalError(f"set-up of {workload} failed: "
                         f"{rec['error']['type']}: {rec['error']['message']}")


def failed(rec):
    return bool(rec.get("error") or rec["failures"])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def untraced(workload, seed, seconds):
    start = time.monotonic()
    warm_up(workload, seed)
    reps = []
    while True:
        reps.append(spawn(workload, seed, "run"))
        typical = statistics.median(r["wall_s"] for r in reps)
        if time.monotonic() - start + typical > seconds:
            break
    timed = [r for r in reps if "run_s" in r]
    if not timed:
        print_failures(reps)
        raise FatalError(f"no repetition of {workload} reached its timed section")
    done = [r for r in timed if not r.get("error")] or timed
    samples = {
        "run_s": [r["run_s"] for r in done],
        "probe_s": [r["probe_s"] for r in done],
        "run_norm": [r["run_s"] / r["probe_s"] for r in done],
        "setup_s": [r["setup_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
    }
    summaries = [r["summary"] for r in done if "summary" in r]
    for key in (k for k in (summaries or [{}])[0] if k in END_TO_END_UNITS):
        samples[key] = [s[key] for s in summaries]
    samples["failed_frac"] = [sum(map(failed, reps)) / len(reps)]
    table = {k: quartiles(v) + (len(v),) for k, v in samples.items()}
    metrics = {k: {"value": table[k][1] if k in table else NOT_APPLICABLE,
                   "unit": END_TO_END_UNITS[k]} for k in GATED}
    return reps, table, metrics


def traced(workload, seed):
    warm_up(workload, seed)
    plain = spawn(workload, seed, "run")
    trace = spawn(workload, seed, "trace")
    reps = [plain, trace]
    if not all("run_s" in r for r in reps):
        print_failures(reps)
        raise FatalError(f"a repetition of {workload} did not reach its "
                         "timed section")
    if plain.get("digest") != trace.get("digest"):
        trace["failures"].append("traced outputs differ from untraced outputs")
    spans = trace["spans"]

    def stat(span, key):
        return spans[span][key] if span in spans else 0

    def ratio(num, den):
        return num / den if den else 0.0

    values = {f"{span}.{s}": stat(span, s)
              for span, stats in SPAN_METRICS for s in stats}
    summary = trace.get("summary", {})
    values.update({
        "losses.gbh_select.calls_per_batch": ratio(
            stat("losses.gbh_select", "calls"),
            stat("trainer.batch_loss_and_grads", "calls")),
        "bayes_opt.kernel.calls_per_proposal": ratio(
            stat("bayes_opt.kernel", "calls"), stat("bayes_opt.propose", "calls")),
        "trainer.kept_epoch_frac": summary.get("kept_epoch_frac", 0.0),
        "trainer.epochs_over_budget": summary.get("epochs_over_budget", 0),
        "trace.overhead_frac": ((trace["run_s"] / trace["probe_s"])
                                / (plain["run_s"] / plain["probe_s"]) - 1.0),
        "trace.covered_frac": trace["covered_s"] / trace["run_s"],
    })
    units = per_layer_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return reps, metrics


def print_untraced(workload, seed, reps, table):
    print(f"workload {workload}  seed {seed}  repetitions {len(reps)} "
          f"(closed loop: one process at a time, BLAS threads {BLAS_THREADS})")
    print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    for key, (q1, med, q3, n) in table.items():
        print(f"  {key:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {n:>3}  "
              f"{END_TO_END_UNITS[key]}")
    for key in GATED:
        if key not in table:
            print(f"  {key:<20} {'n/a':>14}  (reads {NOT_APPLICABLE} in the result line)")
    print_failures(reps)


def print_traced(workload, seed, reps, metrics):
    plain, trace = reps
    run_s = trace["run_s"]
    spans = trace["spans"]
    print(f"workload {workload}  seed {seed}  traced run_s {run_s:.4f} s, "
          f"untraced run_s {plain['run_s']:.4f} s")
    print(f"  {'span':<32} {'calls':>8} {'self_s':>10} {'share':>7} {'failed':>6}")
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        if s["calls"]:
            print(f"  {name:<32} {s['calls']:>8} {s['self_s']:>10.4f} "
                  f"{s['self_s'] / run_s:>7.1%} {s['failed']:>6}")
    modules = {}
    for name, s in spans.items():
        if not name.startswith("synthetic."):
            layer = name.split(".")[0]
            modules[layer] = modules.get(layer, 0.0) + s["self_s"]
    print("  self time by layer in the timed section (share = ceiling on saving):")
    for layer, t in sorted(modules.items(), key=lambda kv: -kv[1]):
        if t:
            print(f"    {layer:<12} {t:>10.4f} s {t / run_s:>7.1%}")
    covered = trace["covered_s"]
    print(f"  span self times {covered:.4f} s + untraced remainder "
          f"{run_s - covered:.4f} s = traced run_s {run_s:.4f} s")
    if trace["absent"]:
        print(f"  absent spans (function no longer exists): "
              f"{', '.join(trace['absent'])}")
    print("  wait time: not applicable (nothing waits on another thread)")
    for key, m in metrics.items():
        print(f"  {key:<44} {m['value']:>14.6g}  {m['unit']}")
    print_failures(reps)


def print_failures(reps):
    for i, r in enumerate(reps):
        if r.get("error"):
            print(f"  repetition {i}: raised {r['error']['type']}: "
                  f"{r['error']['message']}")
        for msg in r["failures"][:MAX_FAILURES_SHOWN]:
            print(f"  repetition {i}: check failed: {msg}")
        if len(r["failures"]) > MAX_FAILURES_SHOWN:
            print(f"  repetition {i}: {len(r['failures']) - MAX_FAILURES_SHOWN} "
                  "more failed checks in the results file")


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": _commit(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    """Per-level cache size and sharing seen by CPU 0 (sysfs), if readable."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = {}
    try:
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            out[f"L{level}"] = {
                "size": (index / "size").read_text().strip(),
                "shared_cpu_list": (index / "shared_cpu_list").read_text().strip(),
            }
    except OSError:
        pass
    return out


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def bench_one(workload, seed, seconds, trace):
    if trace:
        reps, metrics = traced(workload, seed)
        print_traced(workload, seed, reps, metrics)
        table = None
    else:
        reps, table, metrics = untraced(workload, seed, seconds)
        print_untraced(workload, seed, reps, table)
    result = {
        "correct": not any(map(failed, reps)),
        "attempted": len(reps),
        "failed": sum(map(failed, reps)),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(seed),
              "result": result, "table": table, "repetitions": reps}
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the
    # running repetition before this process exits.
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "progmetric" / "__init__.py").is_file():
        print(f"error: no progmetric package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = bench_one(name, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    except FatalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
