import itertools
import json
import os
import signal
import struct

import numpy as np
import pytest

from progmetric import cli, sampler
from progmetric.bayes_opt import NumericalError
from progmetric.cli import main
from progmetric.config import config_from_dict, load_config, ConfigError
from progmetric.model import ModelConfig, NonFiniteGradientError
from progmetric.trainer import MODEL_MAGIC, load_model, save_model


def write_config(tmp_path, **over):
    cfg = {
        "seed": 0,
        "out_dir": str(tmp_path / "out"),
        "data": {"n_identities": 8, "samples_per_identity": 6, "dim": 6,
                 "center_scale": 50.0, "intra_spread": 1.0},
        "split": {"query_per_identity": 2},
        "batch": {"P": 4, "K": 2},
        "model": {"hidden": 8, "embed_dim": 8},
        "pla": {"max_epochs": 10, "initial_design": 2, "explore_epochs": 2,
                "objective_split": 1, "exploit_epochs": 3, "pool_size": 16},
        "epochs": 15,
    }
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def gen_dataset(tmp_path, cfg_path):
    ds = tmp_path / "ds.csv"
    assert main(["gen-data", "--config", str(cfg_path), "--dataset", str(ds)]) == 0
    return ds


# ------------------------------------------------------------------ config

def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"sead": 1})
    with pytest.raises(ConfigError, match="data"):
        config_from_dict({"data": {"n_identitties": 4}})


def test_config_rejects_values_set_elsewhere():
    data = {"n_identities": 4, "samples_per_identity": 4, "dim": 3, "seed": 7}
    with pytest.raises(ConfigError, match="data.seed comes from the top-level seed"):
        config_from_dict({"data": data})
    with pytest.raises(ConfigError, match="model.n_classes comes from the training labels"):
        config_from_dict({"model": {"n_classes": 5}})
    with pytest.raises(ConfigError, match="pla.batch_spec comes from the top-level batch"):
        config_from_dict({"pla": {"batch_spec": {"P": 2, "K": 2}}})


def test_config_rejects_model_input_dim():
    data = {"n_identities": 4, "samples_per_identity": 4, "dim": 6}
    with pytest.raises(ConfigError, match="model.d_in comes from data.dim"):
        config_from_dict({"data": data, "model": {"d_in": 99}})


@pytest.mark.parametrize("epochs", [0, -3, "3", 2.0, True])
def test_config_epochs_must_be_null_or_a_positive_integer(epochs):
    with pytest.raises(ConfigError, match="epochs: expected null or an integer >= 1"):
        config_from_dict({"epochs": epochs})
    assert config_from_dict({"epochs": None}).epochs is None
    assert config_from_dict({"epochs": 4}).epochs == 4


def test_config_propagates_component_validation():
    with pytest.raises(ConfigError):
        config_from_dict({"batch": {"P": 1, "K": 2}})


def test_config_syncs_model_input_dim():
    cfg = config_from_dict({"data": {"n_identities": 4,
                                     "samples_per_identity": 4, "dim": 11}})
    assert cfg.model.d_in == 11
    assert cfg.pla.batch_spec == cfg.batch


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


# ---------------------------------------------------------------- gen-data

def test_gen_data_creates_file_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["gen-data", "--config", str(cfg), "--dataset", str(a)]) == 0
    assert main(["gen-data", "--config", str(cfg), "--dataset", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0].startswith("id,split,f0")


def test_gen_data_missing_config(tmp_path, capsys):
    assert main(["gen-data", "--config", str(tmp_path / "no.json")]) == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------- train

def test_train_ce_only_gbh_column_zero(tmp_path):
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "ce_only"]) == 0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    header = lines[0].split(",")
    gbh = header.index("mean_gbh")
    assert all(float(line.split(",")[gbh]) == 0.0 for line in lines[1:])
    assert (tmp_path / "out" / "checkpoint.bin").exists()


def test_train_pla_writes_exploration_outputs(tmp_path):
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "pla"]) == 0
    out = tmp_path / "out"
    assert (out / "explorations.csv").exists()
    chosen = (out / "chosen.csv").read_text().splitlines()
    assert chosen[0] == "round,lambda,margin,k,p"
    assert len(chosen) > 1


def test_train_batch_hard_loss_decreases(tmp_path):
    # moderate separation so the random-init model starts with active hinges
    cfg = write_config(tmp_path, data={
        "n_identities": 8, "samples_per_identity": 6, "dim": 6,
        "center_scale": 5.0, "intra_spread": 1.0})
    ds = gen_dataset(tmp_path, cfg)
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "batch_hard", "--epochs", "30"]) == 0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()[1:]
    totals = [float(l.split(",")[-1]) for l in lines]
    assert totals[-1] < totals[0]


def test_train_deterministic_given_seed(tmp_path):
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                     "--mode", "pla", "--out", str(out)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "checkpoint.bin").read_bytes() == (
        out2 / "checkpoint.bin").read_bytes()


def trained_epochs(out):
    return len((out / "report.csv").read_text().splitlines()) - 1


def test_train_fixed_budget_precedence(tmp_path):
    cfg = write_config(tmp_path)  # epochs 15, pla.max_epochs 10
    ds = gen_dataset(tmp_path, cfg)
    train = ["train", "--config", str(cfg), "--dataset", str(ds), "--mode", "ce_only"]
    assert main(train + ["--epochs", "1"]) == 0
    assert trained_epochs(tmp_path / "out") == 1
    assert main(train) == 0
    assert trained_epochs(tmp_path / "out") == 15
    write_config(tmp_path, epochs=None)
    assert main(train) == 0
    assert trained_epochs(tmp_path / "out") == 10


@pytest.mark.parametrize("epochs", ["0", "-3"])
def test_train_epochs_below_one_exits_1(tmp_path, capsys, epochs):
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "ce_only", "--epochs", epochs]) == 1
    assert capsys.readouterr().err == f"error: --epochs must be >= 1, got {epochs}\n"
    assert not (tmp_path / "out" / "report.csv").exists()


def test_train_pla_rejects_epochs_flag(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "pla", "--epochs", "1"]) == 1
    assert "pla.max_epochs" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.csv").exists()


def test_train_config_epochs_string_exits_1(tmp_path, capsys):
    ds = gen_dataset(tmp_path, write_config(tmp_path))
    cfg = write_config(tmp_path, epochs="3")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "ce_only"]) == 1
    assert "epochs: expected null or an integer >= 1" in capsys.readouterr().err


BAD_CONFIGS = [
    ({"seed": "a"}, "error: seed: expected int, got 'a'"),
    ({"seed": True}, "error: seed: expected int, got True"),
    ({"out_dir": 5}, "error: out_dir: expected str, got 5"),
    ({"batch": {"P": 2.5, "K": 2}}, "error: batch.P: expected int, got 2.5"),
    ({"split": {"query_per_identity": "2"}},
     "error: split.query_per_identity: expected int, got '2'"),
    ({"split": {"open_set": 1}}, "error: split.open_set: expected bool, got 1"),
    ({"optimizer": {"alpha0": "1e-3"}}, "error: optimizer.alpha0: expected float"),
    ({"pla": {"re_explore_policy": 1}}, "error: pla.re_explore_policy: expected str"),
    ({"fixed_w": {"lam": 1.0, "margin": 0.2, "k": True, "p": 1}},
     "error: fixed_w.k: expected int, got True"),
    ({"data": {"n_identities": 8, "samples_per_identity": 6, "dim": 6.0}},
     "error: data.dim: expected int, got 6.0"),
    ({"model": {"hidden": 0}}, "error: model: hidden must be >= 1, got 0"),
    ({"model": {"embed_dim": 0}}, "error: model: embed_dim must be >= 1, got 0"),
    ({"split": {"open_set": True, "test_fraction": 1.0}},
     "error: split: test_fraction must lie in (0, 1), got 1.0"),
    ({"split": {"open_set": True, "test_fraction": 0}},
     "error: split: test_fraction must lie in (0, 1), got 0"),
]


@pytest.mark.parametrize("over, message", BAD_CONFIGS,
                         ids=[message.split(": ")[1] for _, message in BAD_CONFIGS])
def test_bad_config_value_exits_1_naming_its_key(tmp_path, capsys, over, message):
    ds = gen_dataset(tmp_path, write_config(tmp_path))
    cfg = write_config(tmp_path, **over)
    capsys.readouterr()
    for argv in (["gen-data", "--config", str(cfg), "--dataset", str(tmp_path / "new.csv")],
                 ["train", "--config", str(cfg), "--dataset", str(ds),
                  "--mode", "ce_only"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "new.csv").exists()
    assert not (tmp_path / "out").exists()


def test_train_pla_budget_without_an_exploit_exits_1(tmp_path, capsys):
    ds = gen_dataset(tmp_path, write_config(tmp_path))
    pla = {"max_epochs": 4, "initial_design": 2, "explore_epochs": 2,
           "objective_split": 1, "exploit_epochs": 3}
    cfg = write_config(tmp_path, pla=pla)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "pla"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: pla: max_epochs must exceed initial_design * explore_epochs")
    assert not (tmp_path / "out" / "report.csv").exists()


def test_train_pla_default_config_ends_on_its_last_exploit(tmp_path):
    # PlaConfig() on the default data: budget 120, 4 initial candidates,
    # explore 6, exploit 30, policy "all"; a third round (6 candidates,
    # 36 epochs) would leave no room for an exploit, so it is skipped
    cfg = tmp_path / "default.json"
    cfg.write_text("{}")
    ds = gen_dataset(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--out", str(out)]) == 0
    phases = [line.split(",")[0]
              for line in (out / "report.csv").read_text().splitlines()[1:]]
    assert [(k, len(list(g))) for k, g in itertools.groupby(phases)] == [
        ("explore", 24), ("exploit", 30), ("explore", 30), ("exploit", 30)]
    explorations = (out / "explorations.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in explorations] == ["1"] * 4 + ["2"] * 5
    # the default-size model file: magic, four dimensions, 5,280 weights
    assert (out / "checkpoint.bin").stat().st_size == 8 + 32 + 8 * 5280 == 42280


def test_train_missing_dataset(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg),
                 "--dataset", str(tmp_path / "no.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_nonfinite_gradient_exits_2(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    capsys.readouterr()

    def diverged(*args, **kwargs):
        raise NonFiniteGradientError("non-finite gradient encountered")

    monkeypatch.setattr(cli, "run_pla", diverged)
    assert main(["train", "--config", str(cfg), "--dataset", str(ds)]) == 2
    err = capsys.readouterr().err
    assert err == "error: non-finite gradient encountered\n"


def test_train_batch_producer_killed_exits_1(tmp_path, capsys, monkeypatch, forks):
    # 4 batches an epoch: the run's 10-epoch budget is long enough to fork
    cfg = write_config(tmp_path, pla={"max_epochs": 10, "initial_design": 2,
                                      "explore_epochs": 4, "objective_split": 2,
                                      "exploit_epochs": 4, "pool_size": 16})
    ds = gen_dataset(tmp_path, cfg)
    capsys.readouterr()
    parent, draw = os.getpid(), sampler._draw

    def draw_then_die(*args):
        if os.getpid() != parent:  # in the producer: die mid-block
            os.kill(os.getpid(), signal.SIGKILL)
        return draw(*args)

    monkeypatch.setattr(sampler, "_draw", draw_then_die)
    assert main(["train", "--config", str(cfg), "--dataset", str(ds)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the batch producer (pid ")
    assert "was killed by signal 9" in err and "Traceback" not in err
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -------------------------------------------------------------------- eval

def summary_values(path):
    line = path.read_text().splitlines()[-1]
    parts = dict(kv.split("=") for kv in line.split(",")[1:])
    return float(parts["rank1"]), float(parts["map"])


def test_eval_full_dim_pca_matches_no_pca(tmp_path):
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "ce_only"]) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    plain = tmp_path / "plain.csv"
    reduced = tmp_path / "reduced.csv"
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
                 "--out", str(plain)]) == 0
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
                 "--target-dim", "8", "--out", str(reduced)]) == 0
    r0, m0 = summary_values(plain)
    r1, m1 = summary_values(reduced)
    assert r1 == pytest.approx(r0, abs=1e-9)
    assert m1 == pytest.approx(m0, abs=1e-9)


def test_eval_separable_data_perfect_rank1(tmp_path):
    cfg = write_config(tmp_path, data={
        "n_identities": 8, "samples_per_identity": 6, "dim": 6,
        "center_scale": 500.0, "intra_spread": 0.5})
    ds = gen_dataset(tmp_path, cfg)
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "composite_fixed", "--epochs", "30"]) == 0
    out = tmp_path / "metrics.csv"
    assert main(["eval", "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
                 "--dataset", str(ds), "--out", str(out)]) == 0
    rank1, _ = summary_values(out)
    assert rank1 == 1.0


def test_eval_missing_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    assert main(["eval", "--checkpoint", str(tmp_path / "no.bin"),
                 "--dataset", str(ds)]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_nonfinite_weights_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "ce_only"]) == 0
    ckpt_path = tmp_path / "out" / "checkpoint.bin"
    params = load_model(ckpt_path)
    params.w_trunk[0, 0] = np.nan
    save_model(ckpt_path, params)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt_path),
                 "--dataset", str(ds)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: query embedding row 0 is not finite")


@pytest.mark.parametrize("header", [
    struct.pack("<3q", 6, 8, 8),            # file ends inside the header
    struct.pack("<4q", 0, 8, 8, 4),         # zero input dimension
], ids=["cut_header", "zero_d_in"])
def test_eval_malformed_checkpoint_header_exits_1(tmp_path, capsys, header):
    ds = gen_dataset(tmp_path, write_config(tmp_path))
    path = tmp_path / "bad.bin"
    path.write_bytes(MODEL_MAGIC + header)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--dataset", str(ds)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_eval_old_checkpoint_format_exits_1(tmp_path, capsys):
    # a complete file in the earlier layout: <6q dimensions, Adam step and
    # epoch count, then weights, first and second moments
    ds = gen_dataset(tmp_path, write_config(tmp_path))
    n_params = ModelConfig(d_in=6, hidden=8, embed_dim=8, n_classes=8).n_params
    path = tmp_path / "old.bin"
    path.write_bytes(b"PMCKPT01" + struct.pack("<6q", 6, 8, 8, 8, 30, 13)
                     + b"\0" * (3 * 8 * n_params))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--dataset", str(ds)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: old checkpoint format")
    assert "weights plus Adam moments" in err


# --------------------------------------------------------------- tune-demo

def test_tune_demo_trace_counting(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["tune-demo", "--seed", "0", "--rounds", "1", "--pool", "1",
                 "--initial", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,phase,lambda,margin,k,p,value,best_so_far"
    assert len(lines) == 1 + 4 + 1  # header + initial design + one proposal


@pytest.mark.parametrize("flags", [
    ["--initial", "0", "--rounds", "0"],
    ["--initial", "0"],
    ["--rounds", "-1"],
    ["--pool", "0"],
], ids=["no_evaluations", "no_initial", "negative_rounds", "empty_pool"])
def test_tune_demo_bad_counts_exit_1(tmp_path, capsys, flags):
    out = tmp_path / "trace.csv"
    assert main(["tune-demo", "--seed", "0", "--out", str(out)] + flags) == 1
    assert capsys.readouterr().err.startswith(
        "error: run_tuning needs n_initial >= 1, rounds >= 0 and pool_size >= 1")
    assert not out.exists()


def test_tune_demo_numerical_error_exits_2(capsys, monkeypatch):
    def ill_conditioned(*args, **kwargs):
        raise NumericalError("Gram matrix ill-conditioned after jitter")

    monkeypatch.setattr(cli, "run_tuning", ill_conditioned)
    assert main(["tune-demo", "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: Gram matrix ill-conditioned after jitter\n"


def test_tune_demo_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["tune-demo", "--seed", "3", "--rounds", "5",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------ report

def test_report_summarizes_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    main(["train", "--config", str(cfg), "--dataset", str(ds), "--mode", "pla"])
    capsys.readouterr()
    assert main(["report", "--report", str(tmp_path / "out" / "report.csv")]) == 0
    out = capsys.readouterr().out
    assert "explore=" in out and "exploit=" in out
    assert "lowest epoch mean total" in out


@pytest.mark.parametrize("text", ["", "a,b\n1,2\n"], ids=["empty", "no_phase_column"])
def test_report_not_a_run_report_exits_1(tmp_path, capsys, text):
    path = tmp_path / "report.csv"
    path.write_text(text)
    assert main(["report", "--report", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: not a run report")


def test_report_short_row_exits_1(tmp_path, capsys):
    path = tmp_path / "report.csv"
    header = "phase,candidate,lambda,margin,k,p,lr,mean_ce,mean_gbh,mean_total"
    path.write_text(f"{header}\ntrain,0,1,0.2,1,1,0.001,0.5,0,0.5\ntrain,0,1,0.2\n")
    assert main(["report", "--report", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: line 3 does not have")
