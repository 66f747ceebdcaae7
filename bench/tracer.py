"""Per-layer spans recorded from outside the package.

The tracer wraps public functions and methods of the `progmetric` modules
and aggregates, per span name, the call count, total time, self time (the
span's duration minus the time covered by spans it called) and the number
of calls that raised.  Spans are aggregated in memory and written out by the
caller when the repetition ends.

A function that `trainer` or `tuning` imported by name (``from .bayes_opt
import fit_gp``) is looked up in the importing module, so every module
binding of the original object is replaced, not only the defining one.
A target that no longer exists is reported as absent rather than failing.
"""

from __future__ import annotations

import functools
import sys
import time

# Span name -> where the function is defined, as "module:qualname".
TARGETS = {
    "synthetic.generate": "synthetic:generate",
    "synthetic.split": "synthetic:split",
    "sampler.sample": "sampler:PKSampler.sample",
    "model.forward": "model:forward",
    "model.forward_with_cache": "model:forward_with_cache",
    "model.backward": "model:backward",
    "model.adam_step": "model:adam_step",
    "losses.pairwise_distances": "losses:pairwise_distances",
    "losses.gbh_select": "losses:gbh_select",
    "losses.gbh_loss": "losses:gbh_loss",
    "losses.gbh_loss_grad": "losses:gbh_loss_grad",
    "losses.batch_hard_grad": "losses:batch_hard_grad",
    "losses.cross_entropy_loss": "losses:cross_entropy_loss",
    "losses.cross_entropy_grad": "losses:cross_entropy_grad",
    "losses.composite_loss": "losses:composite_loss",
    "losses.composite_loss_grad": "losses:composite_loss_grad",
    "trainer.run_pla": "trainer:run_pla",
    "trainer.run_fixed": "trainer:run_fixed",
    "trainer.explore": "trainer:explore",
    "trainer.batch_loss_and_grads": "trainer:batch_loss_and_grads",
    "trainer.train_epochs": "trainer:TrainingRun.train_epochs",
    "trainer.snapshot": "trainer:TrainingRun.snapshot",
    "trainer.restore": "trainer:TrainingRun.restore",
    "trainer.class_ids_for": "trainer:TrainingRun.class_ids_for",
    "bayes_opt.fit_gp": "bayes_opt:fit_gp",
    "bayes_opt.propose": "bayes_opt:propose",
    "bayes_opt.expected_improvement": "bayes_opt:expected_improvement",
    "bayes_opt.posterior": "bayes_opt:GPState.posterior",
    "bayes_opt.kernel": "bayes_opt:kernel",
    "tuning.run_tuning": "tuning:run_tuning",
    "evaluation.evaluate": "evaluation:evaluate",
    "evaluation.pca_reduce": "evaluation:pca_reduce",
    "evaluation.pca_apply": "evaluation:pca_apply",
}

PACKAGE = "progmetric"


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "failed")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0

    def as_dict(self):
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "failed": self.failed}


class Tracer:
    """Installs span wrappers into the loaded `progmetric` modules.

    Use as a context manager; leaving it restores every original binding.
    `root_s` accumulates the durations of outermost spans, which equals the
    sum of all self times recorded while the tracer was installed.
    """

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.stats = {name: SpanStats() for name in targets}
        self.absent = []
        self.root_s = 0.0
        self._stack = []
        self._restore = []

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == PACKAGE or name.startswith(PACKAGE + "."))
                   and m is not None]
        for span, where in self.targets.items():
            owner, attr, original = _resolve(where)
            if original is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
            else:
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, name, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False

    def _rebind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def _wrap(self, span, fn):
        stats = self.stats[span]
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats.failed += 1
                raise
            finally:
                dt = clock() - t0
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt

        return wrapper

    def report(self):
        return {name: s.as_dict() for name, s in self.stats.items()
                if name not in self.absent}


def _resolve(where):
    """(owner, attribute, original) for "module:qualname"; original None if gone."""
    mod_name, qualname = where.split(":")
    owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    original = getattr(owner, parts[-1], None) if owner is not None else None
    if not callable(original):
        return owner, parts[-1], None
    return owner, parts[-1], original
