import json
import struct

import numpy as np
import pytest

from progmetric import cli
from progmetric.bayes_opt import NumericalError
from progmetric.cli import main
from progmetric.config import config_from_dict, load_config, ConfigError
from progmetric.model import NonFiniteGradientError
from progmetric.trainer import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint


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
    ckpt = load_checkpoint(ckpt_path)
    ckpt.params.w_trunk[0, 0] = np.nan
    save_checkpoint(ckpt_path, ckpt)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt_path),
                 "--dataset", str(ds)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: query embedding row 0 is not finite")


@pytest.mark.parametrize("header", [
    struct.pack("<3q", 6, 8, 8),            # file ends inside the header
    struct.pack("<6q", 0, 8, 8, 4, 0, 0),   # zero input dimension
], ids=["cut_header", "zero_d_in"])
def test_eval_malformed_checkpoint_header_exits_1(tmp_path, capsys, header):
    ds = gen_dataset(tmp_path, write_config(tmp_path))
    path = tmp_path / "bad.bin"
    path.write_bytes(CHECKPOINT_MAGIC + header)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--dataset", str(ds)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


# --------------------------------------------------------------- tune-demo

def test_tune_demo_trace_counting(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["tune-demo", "--seed", "0", "--rounds", "1", "--pool", "1",
                 "--initial", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,phase,lambda,margin,k,p,value,best_so_far"
    assert len(lines) == 1 + 4 + 1  # header + initial design + one proposal


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
