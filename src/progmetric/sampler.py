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
    """The process drawing a block's batches ended before they all arrived."""


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


# Fewest batches a block draws on a forked producer.  Forking a training
# process, with its exit and reap, takes 4-6 ms on a two-core x86-64 host,
# as long as about 16 in-process draws of a 16 x 8 batch (260-280 us each):
# a shorter block would spend more on the fork than its draws take off the
# training loop.
MIN_FORKED_BATCHES = 16


class PKSampler:
    """Stateful sampler owning its RNG; one instance per training run.

    The identity pools are built (and the identity count checked) once, at
    construction; each sample only draws from them.  Inside `drawing_ahead`,
    samples come from a forked producer that draws the same stream.
    """

    def __init__(self, labels, spec: BatchSpec, seed):
        self.labels = np.asarray(labels)
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self._pools = _identity_pools(self.labels, spec)
        self._producer = None

    def sample(self):
        producer = self._producer
        if producer is None:
            return _draw(self._pools, self.spec, self.rng)
        idx = producer.next_batch()
        if idx is None:
            code = self._stop_producer()
            if code is None:  # reaped by someone else: the status is gone
                how = "ended"
            elif code < 0:
                how = f"was killed by signal {-code}"
            else:
                how = f"exited with status {code}"
            raise BatchProducerError(
                f"the batch producer (pid {producer.pid}) {how} with "
                f"{producer.remaining} of its block's batches undrawn")
        if producer.remaining == 0:
            self._stop_producer()
        return idx

    @contextlib.contextmanager
    def drawing_ahead(self, n_batches):
        """Draw the block's next n_batches samples on a forked process.

        The child draws with a copy of this sampler's pools and generator
        and sends each batch with the generator state after it, so the
        batches equal in-process draws.  Leaving the block, for any reason,
        stops and reaps the child and sets the generator to the state after
        the last batch consumed: the stream goes on as if every batch had
        been drawn here.  Draws stay in process for a block shorter than
        MIN_FORKED_BATCHES, when fewer than two CPUs are usable, another
        Python thread runs, or a block is already open.
        """
        if (self._producer is not None or n_batches < MIN_FORKED_BATCHES
                or _usable_cpus() < 2 or threading.active_count() > 1):
            yield
            return
        self._producer = _Producer(self._pools, self.spec, self.rng, n_batches)
        try:
            yield
        finally:
            if self._producer is not None:
                self._stop_producer()

    def _stop_producer(self):
        """End the open block's producer; its exit code (None if unknown)."""
        producer, self._producer = self._producer, None
        status = producer.close()
        if producer.last is not None:
            self.rng.bit_generator.state = _unpack_state(producer.last[-_STATE_BYTES:])
        return status

    @property
    def batches_per_epoch(self):
        return batches_per_epoch(len(self.labels), self.spec)


_INDEX = np.dtype(int)
_STATE_BYTES = 48  # PCG64: 128-bit state and increment, has_uint32, uinteger


def _pack_state(bit_generator):
    s = bit_generator.state
    return (s["state"]["state"].to_bytes(16, "little")
            + s["state"]["inc"].to_bytes(16, "little")
            + s["has_uint32"].to_bytes(8, "little")
            + s["uinteger"].to_bytes(8, "little"))


def _unpack_state(raw):
    field = [int.from_bytes(raw[i:j], "little")
             for i, j in ((0, 16), (16, 32), (32, 40), (40, 48))]
    return {"bit_generator": "PCG64",
            "state": {"state": field[0], "inc": field[1]},
            "has_uint32": field[2], "uinteger": field[3]}


class _Producer:
    """A forked child that draws n batches and writes one record per batch
    into a pipe: the indices' bytes, then the generator state after them."""

    def __init__(self, pools, spec: BatchSpec, rng, n_batches):
        self.n_index = spec.batch_size
        self.record_size = self.n_index * _INDEX.itemsize + _STATE_BYTES
        self.remaining = n_batches
        self.last = None  # the last record read
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
            _produce(write_fd, pools, spec, rng, n_batches)
        os.close(write_fd)
        self.pid = pid
        self.reader = open(read_fd, "rb", buffering=1 << 16)

    def next_batch(self):
        """The next batch's indices, or None if the child ended first."""
        record = bytearray(self.record_size)
        if self.reader.readinto(record) != self.record_size:
            return None
        self.remaining -= 1
        self.last = record
        return np.frombuffer(record, dtype=_INDEX, count=self.n_index)

    def close(self):
        """Close the pipe (a child still writing gets EPIPE and exits) and
        reap the child; its exit code (minus the signal that killed it), or
        None if it was reaped elsewhere."""
        self.reader.close()
        try:
            return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        except ChildProcessError:
            return None


def _produce(write_fd, pools, spec, rng, n_batches):
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
            for _ in range(n_batches):
                out.write(_draw(pools, spec, rng).tobytes()
                          + _pack_state(rng.bit_generator))
                out.flush()
    except BrokenPipeError:  # the parent left the block early
        pass
    except BaseException:
        code = 1
    finally:
        os._exit(code)
