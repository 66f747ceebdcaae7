import functools
import itertools
import os
import struct
from dataclasses import fields

import numpy as np
import pytest

from progmetric.losses import HyperParams, TripletLayout, triplet_layout
from progmetric.model import PARAM_FIELDS, ModelConfig, OptimizerConfig
from progmetric.sampler import BatchSpec
from progmetric.synthetic import SynthSpec, generate, split, train_partition
from progmetric import trainer
from progmetric.trainer import (
    MODEL_MAGIC,
    PlaConfig,
    TrainingRun,
    batch_loss_and_grads,
    explore,
    load_model,
    run_fixed,
    run_pla,
    save_model,
)

MODEL = ModelConfig(d_in=6, hidden=8, embed_dim=8)
BATCH = BatchSpec(4, 2)
W = HyperParams(lam=1.0, margin=0.2, k=1, p=1)


def small_data(seed=7, **over):
    spec = dict(n_identities=8, samples_per_identity=6, dim=6,
                center_scale=50.0, intra_spread=1.0, seed=seed)
    spec.update(over)
    ds = generate(SynthSpec(**spec))
    return ds.features, ds.labels


def small_pla(**over):
    base = dict(max_epochs=12, initial_design=2, explore_epochs=2,
                objective_split=1, exploit_epochs=3, batch_spec=BATCH,
                pool_size=16)
    base.update(over)
    return PlaConfig(**base)


def make_run(seed=0, mode="composite_fixed"):
    x, y = small_data()
    return TrainingRun(x, y, mode, MODEL, OptimizerConfig(), BATCH, seed)


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


def adam_equal(a, b):
    return a.step == b.step and np.array_equal(a.m, b.m) and np.array_equal(a.v, b.v)


# -------------------------------------------------------------- restoration

def test_explore_restores_bit_exactly():
    run = make_run()
    run.train_epochs(W, 2, phase="exploit", candidate=0)
    before = run.snapshot()
    rec = explore(run, HyperParams(0.5, 0.1, 2, 3), small_pla(), candidate=1)
    assert params_equal(run.params, before.params)
    assert adam_equal(run.adam, before.adam)
    assert rec.mean_loss_first_half > 0
    # the epoch counter is global and keeps advancing through exploration
    assert run.epoch == 2 + 2


def test_explore_on_frozen_model_scores_near_expected_drop():
    # learning rate small enough to underflow every update: weights frozen,
    # the loss drop is pure batch noise and the objective sits near ED
    x, y = small_data()
    run = TrainingRun(x, y, "composite_fixed", MODEL, OptimizerConfig(alpha0=5e-324),
                      BATCH, 3)
    before = run.snapshot()
    rec = explore(run, W, small_pla(explore_epochs=4, objective_split=2), 0)
    assert params_equal(run.params, before.params)
    assert rec.objective_value == pytest.approx(0.15, abs=0.05)


# ------------------------------------------------------------- determinism

def test_train_epochs_bit_reproducible():
    r1, r2 = make_run(5), make_run(5)
    s1 = r1.train_epochs(W, 4, phase="exploit", candidate=0)
    s2 = r2.train_epochs(W, 4, phase="exploit", candidate=0)
    assert [s.mean_total for s in s1] == [s.mean_total for s in s2]
    assert params_equal(r1.params, r2.params)


def test_run_pla_bit_reproducible():
    x, y = small_data()
    a = run_pla(x, y, small_pla(), MODEL, OptimizerConfig(), seed=1)
    b = run_pla(x, y, small_pla(), MODEL, OptimizerConfig(), seed=1)
    assert list(a.report.epoch_csv_lines()) == list(b.report.epoch_csv_lines())
    assert list(a.report.exploration_csv_lines()) == list(
        b.report.exploration_csv_lines())
    assert params_equal(a.final_params, b.final_params)
    assert params_equal(a.best_params, b.best_params)


# ------------------------------------------- batches drawn on a second process

@functools.cache
def desk_data(config):
    """Training data of a desk-scale config: the CLI default data for
    PlaConfig(), criterion 8's split of its seed-7 data otherwise."""
    if config == "default":
        ds = generate(SynthSpec(n_identities=64, samples_per_identity=16, dim=32))
        return ds.features, ds.labels
    ds = generate(SynthSpec(n_identities=64, samples_per_identity=16, dim=32,
                            center_scale=10.0, intra_spread=1.0,
                            hard_negative_fraction=0.10, outlier_fraction=0.10,
                            overhard_fraction=0.05, seed=7))
    return train_partition(split(ds, 4, np.random.default_rng(1)))


DESK_PLA = {"default": PlaConfig(),
            "criterion8": PlaConfig(max_epochs=200, explore_epochs=4, objective_split=2,
                                    exploit_epochs=60, batch_spec=BatchSpec(16, 8),
                                    re_explore_policy="stale")}


@pytest.mark.parametrize("config", sorted(DESK_PLA))
@pytest.mark.parametrize("seed", range(5))
def test_run_pla_same_with_one_cpu_as_with_a_producer(monkeypatch, forks, config, seed):
    x, y = desk_data(config)
    model_cfg = ModelConfig(d_in=32, hidden=64, embed_dim=32)
    two = run_pla(x, y, DESK_PLA[config], model_cfg, OptimizerConfig(), seed=seed)
    assert len(forks) == 1  # one producer for the whole run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = run_pla(x, y, DESK_PLA[config], model_cfg, OptimizerConfig(), seed=seed)
    assert len(forks) == 1
    assert one.report.rows == two.report.rows
    assert one.report.explorations == two.report.explorations
    assert one.report.chosen == two.report.chosen
    assert one.report.best_loss == two.report.best_loss
    assert params_equal(one.best_params, two.best_params)
    assert params_equal(one.final_params, two.final_params)


def test_a_run_forks_one_producer_or_none_below_the_floor(forks):
    x, y = desk_data("criterion8")
    model_cfg = ModelConfig(d_in=32, hidden=64, embed_dim=32)
    run_pla(x, y, DESK_PLA["criterion8"], model_cfg, OptimizerConfig(), seed=0)
    assert len(forks) == 1
    run_fixed(x, y, "composite_fixed", W, 4, model_cfg, OptimizerConfig(),
              BatchSpec(16, 8), seed=0)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):  # both producers are reaped
        os.waitpid(-1, os.WNOHANG)
    # budgets of 12 and 15 batches; the PLA run draws 21
    x, y = small_data()
    run_fixed(x, y, "batch_hard", W, 2, MODEL, OptimizerConfig(), BATCH, seed=0)
    res = run_pla(x, y, small_pla(max_epochs=5, batch_spec=BatchSpec(4, 4)),
                  MODEL, OptimizerConfig(), seed=0)
    assert res.report.total_epochs == 7
    assert len(forks) == 2


def test_training_that_raises_mid_block_leaves_no_process(monkeypatch, forks):
    calls = []

    def failing_step(*args, **kwargs):
        calls.append(1)
        if len(calls) == 7:
            raise FloatingPointError("step 7 failed")

    monkeypatch.setattr(trainer, "adam_step", failing_step)
    x, y = small_data()
    with pytest.raises(FloatingPointError):
        run_fixed(x, y, "batch_hard", W, 40, MODEL, OptimizerConfig(), BATCH, seed=0)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -------------------------------------------------------------- fixed modes

def test_ce_only_smoke_decrease():
    x, y = small_data(center_scale=20.0)
    res = run_fixed(x, y, "ce_only", W, 50, MODEL, OptimizerConfig(), BATCH,
                    seed=2)
    rows = res.report.rows
    assert rows[-1].mean_ce < rows[0].mean_ce
    assert all(r.mean_gbh == 0.0 for r in rows)
    assert rows[0].w.lam == 0.0  # ce_only forces the triplet weight off


def test_batch_hard_separable_reaches_zero_loss():
    x, y = small_data(center_scale=500.0)
    res = run_fixed(x, y, "batch_hard", W, 30, MODEL, OptimizerConfig(), BATCH,
                    seed=0)
    assert res.report.rows[-1].mean_total <= res.report.rows[0].mean_total
    assert res.report.best_loss == min(r.mean_total for r in res.report.rows)
    assert params_equal(res.best_params, res.final_params)


@pytest.mark.parametrize("mode", ["batch_hard", "triplet_only"])
def test_modes_without_logits_leave_the_classifier_at_its_init(mode):
    # these modes compute no logits: the classifier's gradient is 0, and
    # Adam, its moments starting at 0, moves the classifier by exactly 0;
    # the identities overlap, so the triplet terms train the rest
    x, y = small_data(center_scale=2.0)
    init = TrainingRun(x, y, mode, MODEL, OptimizerConfig(), BATCH, seed=4).params
    w = HyperParams(lam=1.0, margin=0.2, k=2, p=3)
    res = run_fixed(x, y, mode, w, 5, MODEL, OptimizerConfig(), BATCH, seed=4)
    for name in ("w_cls", "b_cls"):
        assert getattr(res.final_params, name).tobytes() == getattr(init, name).tobytes()
    assert not np.array_equal(res.final_params.w_trunk, init.w_trunk)
    assert [r.mean_ce for r in res.report.rows] == [0.0] * 5


@pytest.mark.parametrize("mode", ["batch_hard", "triplet_only", "composite_fixed",
                                  "ce_only"])
def test_classifier_left_out_of_adam_changes_no_byte(mode):
    # Adam has moments for the classifier only in the logit modes; every byte
    # of the run equals that of the same run given whole-vector moments
    x, y = small_data(center_scale=2.0)
    w = HyperParams(lam=1.0, margin=0.2, k=2, p=3)

    def train(whole):
        run = TrainingRun(x, y, mode, MODEL, OptimizerConfig(), BATCH, seed=6)
        if whole:
            run.adam = trainer.AdamState.zeros(run.params.flat.size)
        run.train_epochs(w, 3, phase="train", candidate=0)
        return run

    got, want = train(False), train(True)
    n = got.adam.m.size
    n_cls = got.params.w_cls.size + got.params.b_cls.size
    assert n == got.params.flat.size - (0 if mode in trainer.LOGIT_MODES else n_cls)
    assert got.params.flat.tobytes() == want.params.flat.tobytes()
    for a, b in ((got.adam.m, want.adam.m), (got.adam.v, want.adam.v)):
        assert a.tobytes() == b[:n].tobytes()
        assert b[n:].tobytes() == bytes(8 * (b.size - n))  # +0.0 throughout
    assert got.adam.step == want.adam.step == 3 * 6
    assert got.rows == want.rows


def test_run_fixed_rejects_pla_and_unknown_modes():
    x, y = small_data()
    with pytest.raises(ValueError):
        run_fixed(x, y, "pla", W, 2, MODEL, OptimizerConfig(), BATCH, seed=0)
    with pytest.raises(ValueError):
        run_fixed(x, y, "banana", W, 2, MODEL, OptimizerConfig(), BATCH, seed=0)


@pytest.mark.parametrize("mode", ["pla", "composite", "banana"])
def test_training_run_rejects_pla_and_unknown_modes(mode):
    with pytest.raises(ValueError, match=f"cannot train mode '{mode}'"):
        make_run(mode=mode)


def test_pla_is_not_a_loss_mode():
    emb, logits = np.zeros((4, 8)), np.zeros((4, 2))
    with pytest.raises(ValueError):
        batch_loss_and_grads("pla", emb, logits, np.array([0, 0, 1, 1]), W)


def test_class_ids_for_matches_per_batch_searchsorted():
    rng = np.random.default_rng(5)
    x, y = small_data()
    perm = rng.permutation(len(y))
    ids = rng.permutation([907, 12, 55, 3, 4100, 61, 29, 800])
    labels = ids[y][perm]  # shuffled, non-contiguous identity ids
    run = TrainingRun(x[perm], labels, "composite_fixed", MODEL, OptimizerConfig(),
                      BATCH, seed=0)
    classes = np.unique(labels)
    for _ in range(500):
        idx = run.sampler.sample()
        assert np.array_equal(run.class_ids_for(idx),
                              np.searchsorted(classes, labels[idx]))


def layouts_equal(a, b):
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(TripletLayout))


@pytest.mark.parametrize("counts", [(6,) * 8, (1, 2, 3, 6, 6, 6, 6)])
def test_every_batch_has_the_run_layout(counts):
    # the run builds its triplet layout once; every batch the sampler draws
    # must have exactly that layout, also when an identity has fewer than K
    # samples and is drawn with replacement
    rng = np.random.default_rng(8)
    labels = rng.permutation(np.repeat(np.arange(len(counts)) * 13 + 5, counts))
    x = rng.normal(size=(len(labels), MODEL.d_in))
    spec = BatchSpec(4, 4)
    run = TrainingRun(x, labels, "composite_fixed", MODEL, OptimizerConfig(), spec,
                      seed=3)
    repeats = 0
    for _ in range(300):
        idx = run.sampler.sample()
        repeats += len(np.unique(idx)) < spec.batch_size
        assert layouts_equal(triplet_layout(run.class_ids_for(idx)), run.layout)
    assert (repeats > 0) == (min(counts) < spec.K)


@pytest.mark.parametrize("mode", ["composite_fixed", "triplet_only", "batch_hard"])
def test_batch_loss_and_grads_same_with_prebuilt_layout(mode):
    rng = np.random.default_rng(9)
    class_ids = np.repeat(rng.permutation(6)[:4], 3)
    layout = triplet_layout(np.repeat(np.arange(4), 3))
    w = HyperParams(lam=0.7, margin=0.1, k=2, p=3)
    for _ in range(20):
        emb = rng.integers(-1, 2, size=(12, 8)).astype(float)
        logits = rng.normal(size=(12, 6))
        got = batch_loss_and_grads(mode, emb, logits, class_ids, w, layout)
        want = batch_loss_and_grads(mode, emb, logits, class_ids, w)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def test_epoch_is_the_length_of_the_run_history():
    run = make_run()
    run.train_epochs(W, 2, phase="exploit", candidate=0)
    explore(run, W, small_pla(), candidate=1)
    run.train_epochs(W, 1, phase="exploit", candidate=2)
    explore(run, HyperParams(0.5, 0.1, 2, 3), small_pla(), candidate=3)
    assert run.epoch == len(run.rows) == 7
    assert [r.phase for r in run.rows] == (["exploit"] * 2 + ["explore"] * 2
                                           + ["exploit"] + ["explore"] * 2)


# ---------------------------------------------------------------- pla loop

def phase_runs(rows):
    """(phase, epochs) of each maximal run of same-phase rows: an exploit
    phase, or a whole explore round over its candidates."""
    return [(k, len(list(g))) for k, g in itertools.groupby(r.phase for r in rows)]


def test_pla_report_structure_and_budget():
    x, y = small_data()
    for policy in ("all", "stale"):
        cfg = small_pla(re_explore_policy=policy)
        rep = run_pla(x, y, cfg, MODEL, OptimizerConfig(), seed=4).report
        assert rep.total_epochs == len(rep.rows)
        runs = phase_runs(rep.rows)
        # rounds alternate explore and exploit, and the run ends on an exploit
        assert [k for k, _ in runs] == ["explore", "exploit"] * len(rep.chosen)
        assert rep.chosen and rep.explorations
        rounds = [rnd for rnd, _, _ in rep.explorations]
        assert rounds == sorted(rounds) and rounds[-1] == len(rep.chosen)
        assert len(rep.explorations) * cfg.explore_epochs == sum(
            n for k, n in runs if k == "explore")
        # the tracked best equals the lowest exploitation-phase mean loss
        exploit_rows = [r for r in rep.rows if r.phase == "exploit"]
        means = []
        for i in range(0, len(exploit_rows), cfg.exploit_epochs):
            chunk = exploit_rows[i:i + cfg.exploit_epochs]
            means.append(float(np.mean([r.mean_total for r in chunk])))
        assert rep.best_loss == pytest.approx(min(means), rel=1e-12)


def test_pla_phase_starts_only_under_budget_and_is_never_cut():
    x, y = small_data()
    configs = [{}, dict(max_epochs=7), dict(max_epochs=20, exploit_epochs=5),
               dict(max_epochs=16, initial_design=3), dict(max_epochs=5)]
    for policy in ("all", "stale"):
        for over in configs:
            cfg = small_pla(re_explore_policy=policy, **over)
            rep = run_pla(x, y, cfg, MODEL, OptimizerConfig(), seed=2).report
            runs = phase_runs(rep.rows)
            assert runs[-1] == ("exploit", cfg.exploit_epochs)
            epoch = 0
            for rnd, (explore_run, exploit_run) in enumerate(zip(runs[::2], runs[1::2])):
                n_todo = cfg.initial_design + rnd if policy == "all" or rnd == 0 else 1
                assert explore_run == ("explore", n_todo * cfg.explore_epochs)
                assert exploit_run == ("exploit", cfg.exploit_epochs)
                # the round's exploit starts under budget
                epoch += explore_run[1]
                assert epoch < cfg.max_epochs
                epoch += cfg.exploit_epochs
            assert epoch == rep.total_epochs
            # the round the run skipped would have left no room for an exploit
            n_todo = cfg.initial_design + len(rep.chosen) if policy == "all" else 1
            assert epoch + n_todo * cfg.explore_epochs >= cfg.max_epochs


def test_pla_config_rejects_budget_without_an_exploit():
    # initial_design 2 x explore_epochs 2: a budget of 4 leaves no room for
    # the first exploit phase, a budget of 5 does
    with pytest.raises(ValueError, match="no exploit phase can start"):
        small_pla(max_epochs=4)
    assert small_pla(max_epochs=5).max_epochs == 5


def test_pla_stale_policy_explores_each_candidate_once():
    x, y = small_data()
    res = run_pla(x, y, small_pla(max_epochs=20, re_explore_policy="stale"),
                  MODEL, OptimizerConfig(), seed=8)
    seen = [cand for _, cand, _ in res.report.explorations]
    assert len(seen) == len(set(seen))


def test_pla_config_validation():
    with pytest.raises(ValueError):
        small_pla(explore_epochs=3)  # must be 2 x objective_split
    with pytest.raises(ValueError):
        small_pla(exploit_epochs=0)
    with pytest.raises(ValueError):
        small_pla(re_explore_policy="sometimes")


# ------------------------------------------------------------- model file

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    run = make_run(9)
    run.train_epochs(W, 3, phase="exploit", candidate=0)
    path = tmp_path / "model.bin"
    save_model(path, run.params)
    back = load_model(path)
    assert back.config == run.params.config
    assert params_equal(back, run.params)


def hand_model_bytes(cfg, arrays):
    """Magic, the <4q dimensions, then each field as row-major <f8."""
    out = MODEL_MAGIC + struct.pack("<4q", cfg.d_in, cfg.hidden, cfg.embed_dim,
                                    cfg.n_classes)
    for name in PARAM_FIELDS:
        out += np.asarray(arrays[name], dtype="<f8").tobytes(order="C")
    return out


def test_checkpoint_bytes_match_hand_built_layout(tmp_path):
    run = make_run(12)
    run.train_epochs(W, 2, phase="exploit", candidate=0)
    path = tmp_path / "model.bin"
    save_model(path, run.params)
    arrays = {name: getattr(run.params, name) for name in PARAM_FIELDS}
    assert path.read_bytes() == hand_model_bytes(run.model_cfg, arrays)
    assert len(path.read_bytes()) == 8 + 32 + 8 * run.model_cfg.n_params


def test_hand_built_checkpoint_loads(tmp_path):
    cfg = ModelConfig(d_in=5, hidden=7, embed_dim=6, n_classes=4)
    shapes = {"w_trunk": (5, 7), "b_trunk": (7,), "w_trip": (7, 3), "b_trip": (3,),
              "w_soft": (7, 3), "b_soft": (3,), "w_cls": (3, 4), "b_cls": (4,)}
    rng = np.random.default_rng(13)
    arrays = {name: rng.normal(size=shapes[name]) for name in PARAM_FIELDS}
    path = tmp_path / "hand.bin"
    path.write_bytes(hand_model_bytes(cfg, arrays))
    back = load_model(path)
    assert back.config == cfg
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(back, name), arrays[name])


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(ValueError, match="bad magic"):
        load_model(path)


def test_checkpoint_truncated(tmp_path):
    run = make_run(10)
    path = tmp_path / "model.bin"
    save_model(path, run.params)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_model(path)


def test_checkpoint_cut_inside_its_header(tmp_path):
    run = make_run(10)
    path = tmp_path / "model.bin"
    save_model(path, run.params)
    data = path.read_bytes()
    for cut in range(len(MODEL_MAGIC), len(MODEL_MAGIC) + 32):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated model header"):
            load_model(path)


@pytest.mark.parametrize("header", [
    (0, 8, 8, 4),
    (6, 8, 8, 0),
    (6, -8, 8, 4),
], ids=["zero_d_in", "no_classes", "negative_hidden"])
def test_checkpoint_header_out_of_range(tmp_path, header):
    path = tmp_path / "bad.bin"
    path.write_bytes(MODEL_MAGIC + struct.pack("<4q", *header) + b"\0" * 64)
    with pytest.raises(ValueError, match="header needs dimensions"):
        load_model(path)


def test_checkpoint_length_checked_before_allocation(tmp_path):
    # dimensions implying about 70 TB of weights; the short file is refused
    # from its length alone
    path = tmp_path / "huge.bin"
    path.write_bytes(MODEL_MAGIC + struct.pack("<4q", 2**40, 8, 8, 4) + b"\0" * 64)
    with pytest.raises(ValueError, match="truncated model file"):
        load_model(path)


def test_checkpoint_trailing_bytes(tmp_path):
    run = make_run(10)
    path = tmp_path / "model.bin"
    save_model(path, run.params)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_model(path)


def test_csv_headers():
    x, y = small_data()
    res = run_pla(x, y, small_pla(), MODEL, OptimizerConfig(), seed=11)
    lines = list(res.report.epoch_csv_lines())
    assert lines[0] == ("phase,candidate,lambda,margin,k,p,lr,"
                       "mean_ce,mean_gbh,mean_total")
    assert len(lines) == res.report.total_epochs + 1
    ex = list(res.report.exploration_csv_lines())
    assert ex[0].startswith("round,candidate,")
