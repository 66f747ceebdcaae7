"""Training loops: fixed-hyperparameter modes and the explore/restore/exploit
schedule that steers the loss hyperparameters with the GP optimizer.

One run owns its model, sampler, and GP state.  Exploration trains a copy of
the model for a short window, scores the loss drop rate, and discards the
copy, so the live model is bit-identical before and after.  Exploitation
commits real training epochs under the EI-selected candidate.
"""

from __future__ import annotations

import itertools
import os
import struct
from dataclasses import astuple, dataclass, field

import numpy as np

from . import losses
from .bayes_opt import (
    ExplorationRecord,
    drop_rate_objective,
    fit_gp,
    initial_design,
    propose,
)
from .losses import HyperParams, InvalidInputError, LossBreakdown
from .model import (
    AdamState,
    ModelConfig,
    ModelParams,
    NonFiniteGradientError,
    OptimizerConfig,
    adam_step,
    backward,
    beta1_schedule,
    classify,
    forward_with_cache,
    lr_schedule,
)
from .sampler import BatchSpec, PKSampler

TRAIN_MODES = ("pla", "batch_hard", "ce_only", "triplet_only", "composite_fixed")
# the modes whose loss reads the classifier's logits; the others train
# without computing them
LOGIT_MODES = ("composite_fixed", "ce_only")

MODEL_MAGIC = b"PMMODEL1"


@dataclass(frozen=True)
class PlaConfig:
    """Budget and phase sizes for the progressive-learning schedule.

    Desk-scale defaults; the reference large-scale settings are
    max_epochs=3000, explore_epochs=20, exploit_epochs=300, initial_design=8.

    Budget rule: a round of explores starts only if its exploit phase can
    still start after it (total_epochs < max_epochs); no phase is cut, so a
    run ends on an exploit.  Hence max_epochs > initial_design * explore_epochs.
    """

    max_epochs: int = 120
    initial_design: int = 4
    explore_epochs: int = 6
    exploit_epochs: int = 30
    objective_split: int = 3
    expected_drop: float = 0.15
    batch_spec: BatchSpec = field(default_factory=lambda: BatchSpec(16, 8))
    pool_size: int = 256
    re_explore_policy: str = "all"

    def __post_init__(self):
        if self.explore_epochs != 2 * self.objective_split:
            raise ValueError("explore_epochs must equal 2 * objective_split")
        for name in ("max_epochs", "initial_design", "exploit_epochs",
                     "objective_split", "pool_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not 0.0 <= self.expected_drop < 1.0:
            raise ValueError(f"expected_drop must lie in [0, 1), got {self.expected_drop!r}")
        if self.re_explore_policy not in ("all", "stale"):
            raise ValueError("re_explore_policy must be 'all' or 'stale'")
        if self.max_epochs <= self.initial_design * self.explore_epochs:
            raise ValueError("max_epochs must exceed initial_design * explore_epochs, "
                             "or no exploit phase can start")


@dataclass
class Checkpoint:
    """In-memory copy of the model weights and optimizer moments."""

    params: ModelParams
    adam: AdamState


def save_model(path, params: ModelParams):
    """Flat binary layout: magic, ModelConfig's fields as <q in declared
    order, then the flat weights as <f8 (row-major, in PARAM_FIELDS order)."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<4q", *astuple(params.config)))
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_model(path):
    """Inverse of save_model.  A malformed header, or a file length other
    than its dimensions imply, raises ValueError before any array is allocated."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic == b"PMCKPT01":
            raise ValueError(f"{path}: old checkpoint format (weights plus Adam "
                             "moments) is no longer read; retrain to write a model file")
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: not a model file (bad magic)")
        header = fh.read(32)
        if len(header) != 32:
            raise ValueError(f"{path}: truncated model header")
        try:
            cfg = ModelConfig(*struct.unpack("<4q", header))
        except InvalidInputError as exc:
            raise ValueError(f"{path}: model header needs dimensions >= 1 "
                             f"and an even embed_dim: {exc}") from exc
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if remaining < 8 * cfg.n_params:
            raise ValueError(f"{path}: truncated model file")
        if remaining > 8 * cfg.n_params:
            raise ValueError(f"{path}: trailing bytes after model weights")
        flat = np.frombuffer(fh.read(), dtype="<f8").astype(float)
    return ModelParams(cfg, flat)


@dataclass(frozen=True)
class EpochStats:
    """One report row: where the epoch ran and its mean loss terms."""

    phase: str
    candidate: int
    w: HyperParams
    lr: float
    mean_ce: float
    mean_gbh: float
    mean_total: float


@dataclass
class RunReport:
    """Everything a run produced, in epoch order."""

    rows: list = field(default_factory=list)  # the run's own epoch history
    explorations: list = field(default_factory=list)
    chosen: list = field(default_factory=list)
    best_loss: float = float("inf")

    @property
    def total_epochs(self):
        return len(self.rows)

    def epoch_csv_lines(self):
        yield f"phase,candidate,{HyperParams.CSV_HEADER},lr,mean_ce,mean_gbh,mean_total"
        for r in self.rows:
            yield (f"{r.phase},{r.candidate},{r.w.csv_fields()},{r.lr:.17g},"
                   f"{r.mean_ce:.17g},{r.mean_gbh:.17g},{r.mean_total:.17g}")

    def exploration_csv_lines(self):
        yield (f"round,candidate,{HyperParams.CSV_HEADER},"
               "first_half_mean,second_half_mean,objective")
        for rnd, cand, rec in self.explorations:
            yield (f"{rnd},{cand},{rec.hyperparams.csv_fields()},"
                   f"{rec.mean_loss_first_half:.17g},"
                   f"{rec.mean_loss_second_half:.17g},"
                   f"{rec.objective_value:.17g}")


@dataclass
class RunResult:
    """`best_params` is, for run_pla, the model after its lowest-loss exploit
    phase; fixed modes return a copy of the final params."""

    best_params: ModelParams
    final_params: ModelParams
    report: RunReport


def batch_loss_and_grads(mode, emb, logits, class_ids, w: HyperParams,
                         layout=None):
    """Loss breakdown and output-level gradients for one batch in a mode.

    logits are read only in LOGIT_MODES (pass None in the others), and
    only those modes return a logit gradient; the others return None.
    class_ids are the dense class indices (logit columns); they also serve
    as the triplet labels, since triplet selection only compares labels
    for equality.  layout, when given, is class_ids' TripletLayout, which
    the triplet term then does not rebuild.
    """
    trip_labels = class_ids if layout is None else layout
    if mode == "composite_fixed":
        # Composite training mirrors the two-head split: the triplet term
        # sees only the triplet head's half of the embedding, cross-entropy
        # reaches the softmax head through the logits.  Single-loss modes
        # give the whole embedding to their one loss.
        half = emb.shape[1] // 2
        trip = emb[:, :half]
        breakdown, d_trip, d_logits = losses.composite_loss_grad(
            trip, logits, class_ids, w, layout)
        d_emb = np.zeros_like(emb)
        d_emb[:, :half] = d_trip
    elif mode == "ce_only":
        ce, d_logits = losses.cross_entropy_loss_grad(logits, class_ids)
        breakdown = LossBreakdown(softmax_term=ce, gbh_term=0.0, total=ce)
        d_emb = np.zeros_like(emb)
    elif mode == "triplet_only":
        value, d_emb = losses.gbh_loss_grad(emb, trip_labels, w)
        breakdown = LossBreakdown(softmax_term=0.0, gbh_term=value, total=value)
        d_logits = None
    elif mode == "batch_hard":
        value, d_emb = losses.batch_hard_grad(emb, trip_labels, w.margin)
        breakdown = LossBreakdown(softmax_term=0.0, gbh_term=value, total=value)
        d_logits = None
    else:
        raise ValueError(f"unknown training mode {mode!r}")
    return breakdown, d_emb, d_logits


class TrainingRun:
    """Mutable training state: model, optimizer, sampler, epoch history.

    The sampler lays every batch out as P distinct identities in K-long
    blocks, so all batches share one triplet layout, built here once, and
    each batch's gradients go into one buffer the run owns.

    A run trains one loss mode, and Adam has moments for the entries it
    trains: the classifier (last in PARAM_FIELDS) only in LOGIT_MODES.
    """

    def __init__(self, features, labels, mode, model_cfg: ModelConfig,
                 opt_cfg: OptimizerConfig, batch_spec: BatchSpec, seed):
        if mode not in TRAIN_MODES or mode == "pla":
            raise ValueError(f"a training run cannot train mode {mode!r}")
        self.mode = mode
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels)
        classes, self.class_ids = np.unique(self.labels, return_inverse=True)
        self.model_cfg = ModelConfig(
            d_in=model_cfg.d_in, hidden=model_cfg.hidden,
            embed_dim=model_cfg.embed_dim, n_classes=len(classes))
        rng = np.random.default_rng(seed)
        self.params = ModelParams.init(self.model_cfg, rng)
        n_cls = 0 if mode in LOGIT_MODES else self.params.w_cls.size + self.params.b_cls.size
        self.adam = AdamState.zeros(self.params.flat.size - n_cls)
        self.sampler = PKSampler(self.labels, batch_spec, rng.integers(2**63))
        self.layout = losses.triplet_layout(
            np.repeat(np.arange(batch_spec.P), batch_spec.K))
        self.grads = self.params.like(np.empty_like(self.params.flat))
        self.opt_cfg = opt_cfg
        self.rows = []  # one EpochStats per trained epoch; never rewound

    @property
    def epoch(self):
        """Global epoch counter: restoration does not rewind it."""
        return len(self.rows)

    def class_ids_for(self, idx):
        """Dense class index (logit column) of each sample index."""
        return self.class_ids[idx]

    def train_epochs(self, w: HyperParams, n_epochs, phase, candidate):
        """Run n_epochs of mini-batch training in the run's mode; appends and
        returns their stats."""
        start = len(self.rows)
        for _ in range(n_epochs):
            lr = lr_schedule(self.epoch, self.opt_cfg)
            beta1 = beta1_schedule(self.epoch, self.opt_cfg)
            acc = np.zeros(3)
            for _ in range(self.sampler.batches_per_epoch):
                idx = self.sampler.sample()
                x = self.features[idx]
                emb, cache = forward_with_cache(self.params, x)
                logits = (classify(self.params, cache.z_soft)
                          if self.mode in LOGIT_MODES else None)
                try:
                    breakdown, d_emb, d_logits = batch_loss_and_grads(
                        self.mode, emb, logits, self.class_ids_for(idx), w, self.layout)
                except InvalidInputError as exc:
                    # labels, layout and w are valid by construction, so the
                    # model's outputs are what overflowed or went non-finite
                    raise NonFiniteGradientError(f"training diverged: {exc}") from exc
                backward(self.params, cache, d_emb, d_logits, out=self.grads)
                adam_step(self.params, self.grads, self.adam, lr, beta1, self.opt_cfg)
                acc += (breakdown.softmax_term, breakdown.gbh_term, breakdown.total)
            acc /= self.sampler.batches_per_epoch
            self.rows.append(EpochStats(phase=phase, candidate=candidate, w=w, lr=lr,
                                        mean_ce=acc[0], mean_gbh=acc[1],
                                        mean_total=acc[2]))
        return self.rows[start:]

    def snapshot(self):
        return Checkpoint(params=self.params.copy(), adam=self.adam.copy())

    def restore(self, ckpt: Checkpoint):
        self.params = ckpt.params.copy()
        self.adam = ckpt.adam.copy()


def explore(run: TrainingRun, w: HyperParams, cfg: PlaConfig, candidate):
    """Short trial training under w; the model is rolled back afterward.

    Scores |relative drop of the mean loss between the two halves - ED|.
    """
    ckpt = run.snapshot()
    stats = run.train_epochs(w, cfg.explore_epochs, phase="explore",
                             candidate=candidate)
    totals = [s.mean_total for s in stats]
    half = cfg.objective_split
    first = float(np.mean(totals[:half]))
    second = float(np.mean(totals[half:]))
    objective = drop_rate_objective(first, second, cfg.expected_drop)
    run.restore(ckpt)
    return ExplorationRecord(
        hyperparams=w,
        mean_loss_first_half=first,
        mean_loss_second_half=second,
        objective_value=objective,
    )


def run_fixed(features, labels, mode, w: HyperParams, n_epochs,
              model_cfg: ModelConfig, opt_cfg: OptimizerConfig,
              batch_spec: BatchSpec, seed):
    """Train one fixed-hyperparameter mode for n_epochs."""
    run = TrainingRun(features, labels, mode, model_cfg, opt_cfg, batch_spec, seed)
    if mode == "ce_only":
        w = HyperParams(lam=0.0, margin=w.margin, k=w.k, p=w.p)
    stats = run.train_epochs(w, n_epochs, phase="train", candidate=0)
    report = RunReport(rows=run.rows, best_loss=min(
        (s.mean_total for s in stats), default=float("inf")))
    return RunResult(best_params=run.params.copy(), final_params=run.params,
                     report=report)


def run_pla(features, labels, pla_cfg: PlaConfig, model_cfg: ModelConfig,
            opt_cfg: OptimizerConfig, seed):
    """Full progressive schedule: explore candidates, propose via EI, exploit.

    Repeats {explore each candidate per policy; fit GP; propose a new
    candidate; train exploit_epochs under it; track the model with the
    lowest exploitation-phase mean loss}.  A round starts only if its exploit
    can start under budget after its explores; no phase is cut.
    """
    run = TrainingRun(features, labels, "composite_fixed", model_cfg, opt_cfg,
                      pla_cfg.batch_spec, seed)
    bo_rng = np.random.default_rng(np.random.default_rng(seed).integers(2**63) ^ 0x5EED)
    report = RunReport(rows=run.rows)
    candidates = list(initial_design(bo_rng, pla_cfg.initial_design))
    objectives = [None] * len(candidates)
    best_params = run.params.copy()
    best_loss = float("inf")
    for round_idx in itertools.count(1):
        todo = [i for i, obj in enumerate(objectives)
                if pla_cfg.re_explore_policy == "all" or obj is None]
        if run.epoch + len(todo) * pla_cfg.explore_epochs >= pla_cfg.max_epochs:
            break
        for i in todo:
            rec = explore(run, candidates[i], pla_cfg, candidate=i)
            objectives[i] = rec.objective_value
            report.explorations.append((round_idx, i, rec))
        gp = fit_gp(candidates, objectives)
        w_new = propose(gp, pla_cfg.pool_size, bo_rng)
        candidates.append(w_new)
        objectives.append(None)
        report.chosen.append(w_new)
        stats = run.train_epochs(w_new, pla_cfg.exploit_epochs, phase="exploit",
                                 candidate=len(candidates) - 1)
        phase_mean = float(np.mean([s.mean_total for s in stats]))
        if phase_mean < best_loss:
            best_loss = phase_mean
            best_params = run.params.copy()
    report.best_loss = best_loss
    return RunResult(best_params=best_params, final_params=run.params,
                     report=report)
