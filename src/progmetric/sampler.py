"""Identity-balanced P x K mini-batch sampling."""

from __future__ import annotations

import contextlib
import gc
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .evaluation import _usable_cpus


class InsufficientDataError(ValueError):
    """Dataset has fewer distinct identities than the batch requires."""


class BatchProducerError(RuntimeError):
    """The batch producer ended mid-block, or its block has ended and taken
    the sampler's stream with it."""


@dataclass(frozen=True)
class BatchSpec:
    """P identities per batch, K samples per identity."""

    P: int
    K: int

    def __post_init__(self):
        if self.P < 2 or self.K < 2:
            raise ValueError("P and K must both be >= 2 for triplet formation")

    @property
    def batch_size(self):
        return self.P * self.K


def _identity_pools(labels, spec: BatchSpec):
    """Each identity's sample indices in ascending order, identities sorted.

    Raises InsufficientDataError when there are fewer identities than P.
    """
    _, inverse = np.unique(labels, return_inverse=True)
    counts = np.bincount(inverse)
    if len(counts) < spec.P:
        raise InsufficientDataError(
            f"need at least {spec.P} identities, dataset has {len(counts)}"
        )
    return np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])


def _draw(pools, spec: BatchSpec, rng: np.random.Generator):
    chosen = rng.choice(len(pools), size=spec.P, replace=False)
    out = np.empty(spec.batch_size, dtype=int)
    for i, j in enumerate(chosen):
        pool = pools[j]
        replace = len(pool) < spec.K
        out[i * spec.K : (i + 1) * spec.K] = rng.choice(pool, size=spec.K, replace=replace)
    return out


def pk_sample(labels, spec: BatchSpec, rng: np.random.Generator):
    """Draw N = P*K sample indices: P identities, K samples each.

    Identity choice is uniform without replacement.  Within an identity,
    samples are drawn without replacement when enough exist, otherwise
    with replacement.
    """
    return _draw(_identity_pools(labels, spec), spec, rng)


def batches_per_epoch(dataset_size, spec: BatchSpec):
    """Epoch granularity: ceil(dataset_size / (P*K)) batches."""
    return math.ceil(dataset_size / spec.batch_size)


# Smallest batch budget (the batches a run expects to draw) for which the
# run draws on a forked producer.  Forking a training process, with its exit
# and reap, takes 4-6 ms on a two-core x86-64 host, as long as about 16
# in-process draws of a 16 x 8 batch (260-280 us each): a run with a smaller
# budget would spend more on the fork than its draws take off the training
# loop.
MIN_FORKED_BATCHES = 16


class PKSampler:
    """Stateful sampler owning its RNG; one instance per training run.

    The identity pools are built (and the identity count checked) once, at
    construction; each sample only draws from them.  Inside `drawing_ahead`,
    samples come from a forked producer that draws the same stream.  A
    producer takes the stream with it: once its block ends, the sampler
    draws no more.
    """

    def __init__(self, labels, spec: BatchSpec, seed):
        self.labels = np.asarray(labels)
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self._pools = _identity_pools(self.labels, spec)
        self._producer = None

    def sample(self):
        if self._producer is not None:
            return self._producer.next_batch()
        if self.rng is None:
            raise BatchProducerError(_SPENT)
        return _draw(self._pools, self.spec, self.rng)

    @contextlib.contextmanager
    def drawing_ahead(self, n_batches):
        """Draw the block's samples, about n_batches, on a forked process.

        The child draws with a copy of this sampler's pools and generator,
        so its batches equal in-process draws, and sends their indices until
        the parent closes the pipe, also past n_batches.  The stream goes
        with it: leaving the block, for any reason, stops and reaps the
        child, and from then on `sample` and `drawing_ahead` raise
        BatchProducerError.  Draws stay in process, with the stream here,
        for n_batches under MIN_FORKED_BATCHES, when fewer than two CPUs are
        usable, another Python thread runs, or a block is already open.
        """
        if self._producer is None and self.rng is None:
            raise BatchProducerError(_SPENT)
        if (self._producer is not None or n_batches < MIN_FORKED_BATCHES
                or _usable_cpus() < 2 or threading.active_count() > 1):
            yield
            return
        self._producer = _Producer(self._pools, self.spec, self.rng)
        self.rng = None
        try:
            yield
        finally:
            producer, self._producer = self._producer, None
            producer.close()

    @property
    def batches_per_epoch(self):
        return batches_per_epoch(len(self.labels), self.spec)


_SPENT = "the sampler's stream went to a batch producer whose block has ended"


class _Producer:
    """A forked child that draws batches and writes each one's indices into
    a pipe, until the parent closes it."""

    def __init__(self, pools, spec: BatchSpec, rng):
        self.n_index = spec.batch_size
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns on fork while any OS thread (a BLAS
                # pool's, say) runs; the child runs no code those threads own.
                warnings.filterwarnings(
                    "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning)
                pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            _produce(write_fd, pools, spec, rng)
        os.close(write_fd)
        self.pid = pid
        self.reader = open(read_fd, "rb", buffering=1 << 16)

    def next_batch(self):
        """The next batch's indices; BatchProducerError if the child ended."""
        idx = np.empty(self.n_index, dtype=int)
        if not self.reader.closed and self.reader.readinto(idx) == idx.nbytes:
            return idx
        code = self.close()
        how = ("ended" if code is None  # reaped elsewhere: the status is gone
               else f"was killed by signal {-code}" if code < 0
               else f"exited with status {code}")
        raise BatchProducerError(f"the batch producer (pid {self.pid}) {how} mid-block")

    def close(self):
        """Close the pipe (a child still writing gets EPIPE and exits) and
        reap the child; its exit code (minus the signal that killed it), or
        None if it was reaped elsewhere."""
        self.reader.close()
        try:
            return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        except ChildProcessError:
            return None


def _produce(write_fd, pools, spec, rng):
    """The producer child's whole life; it never returns.

    It closes every descriptor it inherited but stdio and its own write
    end, so no other sampler's read end stays open in it: closing that read
    end in the parent must be what ends the other producer.
    """
    code = 0
    try:
        gc.disable()  # _draw makes no cycles; a collection would copy shared pages
        os.closerange(3, write_fd)
        os.closerange(write_fd + 1, os.sysconf("SC_OPEN_MAX"))
        with open(write_fd, "wb") as out:
            while True:
                out.write(_draw(pools, spec, rng).tobytes())
                out.flush()
    except BrokenPipeError:  # the parent closed the pipe
        pass
    except BaseException:
        code = 1
    finally:
        os._exit(code)
