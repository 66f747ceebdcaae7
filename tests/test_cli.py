import contextlib
import functools
import io
import itertools
import json
import math
import pathlib
import re
import struct
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progmetric import cli, synthetic
from progmetric.bayes_opt import NumericalError
from progmetric.cli import main
from progmetric.config import RunConfig, config_from_dict, load_config, ConfigError
from progmetric.model import ModelConfig, ModelParams, NonFiniteGradientError
from progmetric.sampler import BatchSpec
from progmetric.synthetic import SynthSpec
from progmetric.trainer import MODEL_MAGIC, load_model, save_model


DATA = {"n_identities": 8, "samples_per_identity": 6, "dim": 6,
        "center_scale": 50.0, "intra_spread": 1.0}
PLA = {"max_epochs": 10, "initial_design": 2, "explore_epochs": 2,
       "objective_split": 1, "exploit_epochs": 3, "pool_size": 16}


def write_config(tmp_path, **over):
    cfg = {
        "seed": 0,
        "out_dir": str(tmp_path / "out"),
        "data": DATA,
        "split": {"query_per_identity": 2},
        "batch": {"P": 4, "K": 2},
        "model": {"hidden": 8, "embed_dim": 8},
        "pla": PLA,
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


@pytest.mark.parametrize("over, message", [
    ({"seed": -1}, "seed: expected an integer >= 0, got -1"),
    ({"epochs": 0}, "epochs: expected null or an integer >= 1, got 0"),
    ({"epochs": True}, "epochs: expected null or an integer >= 1, got True"),
], ids=["negative_seed", "zero_epochs", "bool_epochs"])
def test_run_config_built_in_code_is_validated(over, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(**over)


def test_run_config_built_in_code_syncs_derived_fields():
    assert RunConfig(batch=BatchSpec(4, 2)).pla.batch_spec == BatchSpec(4, 2)
    assert RunConfig(data=SynthSpec(4, 4, 11)).model.d_in == 11


def test_readme_config_block_loads():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"^```json\n(.*?)^```$", readme.read_text(), re.M | re.S)
    assert len(blocks) == 1
    raw = json.loads(blocks[0])
    cfg = config_from_dict(raw)
    for key, value in raw.items():
        got = getattr(cfg, key)
        assert ({k: getattr(got, k) for k in value} if isinstance(value, dict)
                else got) == value, key


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        load_config(path)


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
    assert capsys.readouterr().err == (
        f"error: argument --epochs: expected an integer >= 1, got '{epochs}'\n")
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
    ({"data": {**DATA, "center_scale": math.inf}}, "error: data: center_scale must be >= 0 "
     "and at most half the largest float, got inf"),
    ({"data": {**DATA, "center_scale": 1e308}}, "error: data: center_scale must be"),
    ({"data": {**DATA, "center_scale": -1}}, "error: data: center_scale must be"),
    ({"data": {**DATA, "intra_spread": math.nan}},
     "error: data: intra_spread must be finite and >= 0, got nan"),
    ({"data": {**DATA, "intra_spread": -1.0}}, "error: data: intra_spread must be"),
    ({"split": {"query_per_identity": 0}},
     "error: split: query_per_identity must be >= 1, got 0"),
    ({"split": {"query_per_identity": -1}}, "error: split: query_per_identity must be"),
    ({"pla": {**PLA, "expected_drop": math.nan}},
     "error: pla: expected_drop must lie in [0, 1), got nan"),
    ({"pla": {**PLA, "expected_drop": -5}}, "error: pla: expected_drop must lie in"),
    ({"optimizer": {"e0": -1}}, "error: optimizer: e0 must be >= 0, got -1"),
    ({"optimizer": {"beta1_switch_epoch": -1}},
     "error: optimizer: beta1_switch_epoch must be >= 0, got -1"),
    ({"seed": -1}, "error: seed: expected an integer >= 0, got -1"),
    ({"data": {**DATA, "n_identities": 1}}, "error: data: n_identities must be >= 2, got 1"),
    ({"data": {**DATA, "dim": 0}}, "error: data: dim must be >= 1, got 0"),
    ({"data": {**DATA, "outlier_fraction": math.nan}},
     "error: data: outlier_fraction must lie in [0, 1], got nan"),
    ({"optimizer": {"beta2": 1.0}}, "error: optimizer: beta2 must lie in (0, 1), got 1.0"),
    ({"pla": {**PLA, "pool_size": 0}}, "error: pla: pool_size must be >= 1, got 0"),
    ({"data": {**DATA, "outlier_fraction": 0.5, "overhard_fraction": 0.6}},
     "error: data: overhard_fraction and outlier_fraction replace 4 + 3 of "
     "samples_per_identity = 6 rows"),
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


# ------------------------------------------------- config property (fuzzed)

def _near(lo, hi=None, integer=False):
    """Values on, just inside and just across a field's bounds."""
    if integer:
        return [lo - 1, lo, lo + 1, float(lo)]
    values = [lo, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf),
              math.nan, math.inf, -math.inf]
    if hi is not None:
        values += [hi, math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf)]
    return values


# (section or None for a top-level key, field, candidate values); every
# other field keeps the tiny valid config of write_config
FUZZED_FIELDS = [
    (None, "seed", [-1, 0, 2**64, 1.5]),
    (None, "epochs", [0, 1, None, 2.0]),
    ("data", "n_identities", _near(2, integer=True)),
    ("data", "samples_per_identity", [1, 2, 3, 3.0]),
    ("data", "dim", _near(1, integer=True)),
    ("data", "center_scale", _near(0.0, sys.float_info.max / 2)),
    ("data", "intra_spread", _near(0.0, sys.float_info.max)),
    ("data", "hard_negative_fraction", _near(0.0, 1.0)),
    ("data", "outlier_fraction", _near(0.0, 1.0)),
    ("data", "overhard_fraction", _near(0.0, 1.0)),
    ("split", "query_per_identity", _near(1, integer=True) + [6]),
    ("split", "open_set", [True, False, 1]),
    ("split", "test_fraction", _near(0.0, 1.0)),
    ("batch", "P", _near(2, integer=True) + [9]),
    ("batch", "K", _near(2, integer=True) + [7]),
    ("model", "hidden", _near(1, integer=True)),
    ("model", "embed_dim", _near(1, integer=True) + [3]),
    ("optimizer", "alpha0", _near(0.0) + [1e12]),
    ("optimizer", "epsilon", _near(0.0)),
    ("optimizer", "e0", _near(0, integer=True) + [300]),
    ("optimizer", "e1", _near(150, integer=True)),
    ("optimizer", "beta1_switch_epoch", _near(0, integer=True)),
    ("optimizer", "beta1_early", _near(0.0, 1.0)),
    ("optimizer", "beta1_late", _near(0.0, 1.0)),
    ("optimizer", "beta2", _near(0.0, 1.0)),
    ("pla", "max_epochs", _near(4, integer=True)),
    ("pla", "initial_design", _near(1, integer=True) + [5]),
    ("pla", "explore_epochs", _near(2, integer=True)),
    ("pla", "objective_split", _near(1, integer=True)),
    ("pla", "exploit_epochs", _near(1, integer=True)),
    ("pla", "expected_drop", _near(0.0, 1.0)),
    ("pla", "pool_size", _near(1, integer=True)),
    ("pla", "re_explore_policy", ["all", "stale", "none"]),
    ("fixed_w", "lam", _near(0.0, 2.0)),
    ("fixed_w", "margin", _near(-0.1, 0.3)),
    ("fixed_w", "k", _near(1, integer=True) + [8, 9]),
    ("fixed_w", "p", _near(1, integer=True) + [16, 17]),
]

CONFIG_KEYS = [key for _, key, _ in FUZZED_FIELDS]
CONFIG_EDITS = st.sampled_from(FUZZED_FIELDS).flatmap(
    lambda f: st.tuples(st.just(f[:2]), st.sampled_from(f[2])))


def run_cli(argv):
    """main(argv)'s exit code and standard error, in process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def run_commands(edits):
    """gen-data, train in batch_hard and in pla, then eval each model, on the
    tiny config with edits applied.  Each command writes its outputs and
    exits 0; exits 1 with one `error:` line that names a config key
    (gen-data, train) or with one `error:` line (eval, which reads no
    config); or, only when the config is valid, exits 2 for a numerical
    failure in train.  No exception escapes main."""
    raw = {"seed": 0, "data": dict(DATA), "split": {"query_per_identity": 2},
           "batch": {"P": 4, "K": 2}, "model": {"hidden": 8, "embed_dim": 8},
           "optimizer": {}, "pla": dict(PLA),
           "fixed_w": {"lam": 1.0, "margin": 0.2, "k": 1, "p": 1}, "epochs": 2}
    for (section, key), value in edits:
        (raw if section is None else raw[section])[key] = value
    try:
        config_from_dict(raw)
        valid = True
    except ConfigError:
        valid = False

    def check(code, err, outputs, keyed=True):
        assert "Traceback" not in err
        if code == 0:
            assert all(p.exists() for p in outputs)
            return True
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        if code == 2:
            assert valid, (edits, err)
        elif keyed:
            # a config that does not load names an edited key; a valid one
            # fails on a constraint between keys, and names one of them
            assert code == 1, (edits, err)
            keys = [key for (_, key), _ in edits] if not valid else CONFIG_KEYS
            assert any(re.search(rf"\b{k}\b", lines[0]) for k in keys), (edits, err)
        else:
            assert code == 1, (edits, err)
        return False

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({**raw, "out_dir": str(tmp / "out")}))
        ds = tmp / "ds.csv"
        if not check(*run_cli(["gen-data", "--config", str(cfg), "--dataset", str(ds)]),
                     [ds]):
            return
        for mode in ("batch_hard", "pla"):
            out = tmp / mode
            files = [out / "report.csv", out / "checkpoint.bin"]
            if mode == "pla":
                files += [out / "explorations.csv", out / "chosen.csv"]
            if not check(*run_cli(["train", "--config", str(cfg), "--dataset", str(ds),
                                   "--mode", mode, "--out", str(out)]), files):
                continue
            metrics = out / "metrics.csv"
            check(*run_cli(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                            "--dataset", str(ds), "--out", str(metrics)]),
                  [metrics], keyed=False)


@given(st.lists(CONFIG_EDITS, min_size=1, max_size=2, unique_by=lambda e: e[0]))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
def test_every_command_exits_cleanly_on_any_config(edits):
    run_commands(edits)


# --------------------------------------------------- flag property (fuzzed)

# (command, flag, least valid value); unedited flags keep their defaults
FUZZED_FLAGS = [("gen-data", "--seed", 0), ("train", "--seed", 0), ("train", "--epochs", 1),
                ("tune-demo", "--seed", 0), ("tune-demo", "--rounds", 0),
                ("tune-demo", "--pool", 1), ("tune-demo", "--initial", 1)]
FLAG_VALUES = st.one_of(st.integers(-2, 3).map(str),
                        st.sampled_from(["-0", "1.5", "2e0", "abc", "", "-x"]))
FLAG_EDITS = st.tuples(st.sampled_from(FUZZED_FLAGS), FLAG_VALUES)


@given(st.lists(FLAG_EDITS, min_size=1, max_size=3, unique_by=lambda e: e[0]))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
def test_every_command_exits_cleanly_on_any_flag(edits):
    """gen-data, train (batch_hard) and tune-demo with edited flag values:
    each exits 0 with its output written when its values are integers at
    or above the flag's least value, else exits 1 with one `error:` line
    naming a bad flag and writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cfg = write_config(tmp, epochs=2)
        ds = tmp / "ds.csv"
        assert run_cli(["gen-data", "--config", str(cfg), "--dataset", str(ds)])[0] == 0
        commands = {
            "gen-data": (["--config", str(cfg), "--dataset", str(tmp / "gen.csv")],
                         tmp / "gen.csv"),
            "train": (["--config", str(cfg), "--dataset", str(ds), "--mode", "batch_hard",
                       "--out", str(tmp / "train")], tmp / "train" / "checkpoint.bin"),
            "tune-demo": (["--out", str(tmp / "trace.csv")], tmp / "trace.csv"),
        }
        for command, (argv, output) in commands.items():
            flags = [(flag, low, value) for (cmd, flag, low), value in edits if cmd == command]
            bad = [flag for flag, low, value in flags
                   if not (value.lstrip("-").isdigit() and int(value) >= low)]
            code, err = run_cli([command, *argv,
                                 *itertools.chain.from_iterable((f, v) for f, _, v in flags)])
            if not bad:
                assert code == 0 and output.exists(), (edits, err)
                continue
            lines = err.splitlines()
            assert code == 1 and len(lines) == 1, (edits, err)
            assert any(lines[0].startswith(f"error: argument {f}: ") for f in bad), (edits, err)
            assert not output.exists(), edits


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



@pytest.mark.parametrize("mode", ["batch_hard", "composite_fixed", "pla"])
def test_train_on_data_that_overflows_the_model_exits_2(tmp_path, capsys, mode):
    # centres near half the largest float: the embeddings overflow, and
    # training reports that as a numerical failure, on one line
    data = {**DATA, "center_scale": 8.9e307}
    cfg = write_config(tmp_path, data=data)
    ds = gen_dataset(tmp_path, cfg)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--dataset", str(ds), "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_eval_target_dim_below_one_exits_1(tmp_path, capsys, dim):
    # rejected while parsing, before the model loads and both sides are embedded
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "ce_only"]) == 0
    out = tmp_path / "metrics.csv"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
                 "--dataset", str(ds), "--target-dim", dim, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: argument --target-dim: expected an integer >= 1, got '{dim}'\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    ([], "query embedding row 0 is not finite"),
    (["--target-dim", "2"], "query embedding row 0 is not finite"),
], ids=["raw", "pca"])
def test_eval_nonfinite_weights_exits_1(tmp_path, capsys, flags, message):
    # with --target-dim each side is checked before the PCA stack, so the
    # error names the side and its row, as evaluate's does
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
                 "--dataset", str(ds)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ds} with model {ckpt_path}: {message}")


@pytest.mark.parametrize("flags", [[], ["--target-dim", "2"]], ids=["raw", "pca"])
def test_eval_overflowing_gallery_feature_names_its_gallery_row(tmp_path, capsys, flags):
    # finite 1e308 features overflow their row's embedding; the error names
    # the gallery row, not its row in the PCA stack of both sides
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "ce_only"]) == 0
    lines = ds.read_text().splitlines()
    gallery = [i for i, line in enumerate(lines) if line.split(",")[1] == "gallery"]
    fields = lines[gallery[3]].split(",")
    lines[gallery[3]] = ",".join(fields[:2] + ["1e308"] * (len(fields) - 2))
    ds.write_text("\n".join(lines) + "\n")
    ckpt_path = tmp_path / "out" / "checkpoint.bin"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt_path), "--dataset", str(ds)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ds} with model {ckpt_path}: "
                          "gallery embedding row 3 is not finite")


@pytest.mark.parametrize("header", [
    struct.pack("<3q", 6, 8, 8),            # file ends inside the header
    struct.pack("<4q", 0, 8, 8, 4),         # zero input dimension
    struct.pack("<4q", 6, 8, 3, 4),         # odd embedding width
], ids=["cut_header", "zero_d_in", "odd_embed_dim"])
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


def write_model(path, d_in):
    cfg = ModelConfig(d_in=d_in, hidden=8, embed_dim=8, n_classes=8)
    save_model(path, ModelParams.init(cfg, np.random.default_rng(0)))
    return path


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("label", ["99999999999999999999999", "-99999999999999999999999"])
def test_label_outside_int64_exits_1_naming_its_line(tmp_path, capsys, command, label):
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    lines = ds.read_text().splitlines()
    lines[3] = label + lines[3][lines[3].index(","):]
    ds.write_text("\n".join(lines) + "\n")
    argv = {"train": ["train", "--config", str(cfg)],
            "eval": ["eval", "--checkpoint", str(write_model(tmp_path / "m.bin", 6))]}
    capsys.readouterr()
    assert main([*argv[command], "--dataset", str(ds)]) == 1
    assert capsys.readouterr().err == f"error: {ds}:4: malformed row\n"


def test_eval_width_mismatch_names_both_files(tmp_path, capsys):
    ds = gen_dataset(tmp_path, write_config(tmp_path))
    model = write_model(tmp_path / "narrow.bin", 4)
    out = tmp_path / "metrics.csv"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(model), "--dataset", str(ds),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ds} has 6 features a row, but the model {model} reads 4\n")
    assert not out.exists()


def rewrite_rows(path, edit):
    """Rewrite a dataset file's data rows: row i, split into its fields,
    becomes edit(i, fields)."""
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + [",".join(edit(i, row.split(",")))
                                          for i, row in enumerate(rows)]) + "\n")


def test_train_on_one_identity_names_the_dataset(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ds = gen_dataset(tmp_path, cfg)
    rewrite_rows(ds, lambda i, f: ["5", *f[1:]])
    for mode in ("batch_hard", "pla"):
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                     "--mode", mode]) == 1
        assert capsys.readouterr().err == (
            f"error: {ds}: need at least P = 4 identities, dataset has 1\n")
    assert not (tmp_path / "out").exists()


DATA_CONTENT_FAULTS = {
    "no_split_tags": (lambda i, f: [f[0], "train", *f[2:]],
                      "dataset has no query/gallery tags; split it first"),
    "no_gallery_match": (lambda i, f: [str(1000 + int(f[0])) if f[1] == "query" else f[0],
                                       *f[1:]],
                         "no query has a gallery match"),
    "distance_overflow": (lambda i, f: [*f[:2], "1e308", *f[3:]] if i == 0 else f,
                          "query/gallery distances overflow float64"),
}


@pytest.mark.parametrize("edit, message", DATA_CONTENT_FAULTS.values(),
                         ids=DATA_CONTENT_FAULTS.keys())
def test_eval_data_content_fault_names_both_files(tmp_path, capsys, edit, message):
    ds = gen_dataset(tmp_path, write_config(tmp_path))
    rewrite_rows(ds, edit)
    model = write_model(tmp_path / "m.bin", 6)
    out = tmp_path / "metrics.csv"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(model), "--dataset", str(ds),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {ds} with model {model}: {message}\n"
    assert not out.exists()


# -------------------------------------------- file-input property (fuzzed)

@functools.cache
def valid_files():
    """(dataset, model) file bytes: the tiny config's dataset and a model
    trained on it for one epoch."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cfg = write_config(tmp)
        ds = tmp / "ds.csv"
        for argv in (["gen-data", "--config", str(cfg), "--dataset", str(ds)],
                     ["train", "--config", str(cfg), "--dataset", str(ds),
                      "--mode", "batch_hard", "--epochs", "1"]):
            assert run_cli(argv)[0] == 0
        return ds.read_bytes(), (tmp / "out" / "checkpoint.bin").read_bytes()


CELL_VALUES = ["99999999999999999999999", "-99999999999999999999999", "-3", "+3", " 2",
               "1.5", "", "0x10", "gallery", "query", "train", "test",
               "nan", "inf", "-inf", "1e308", "-1e308"]
DATASET_EDITS = st.one_of(
    st.tuples(st.just("cell"), st.integers(1, 48), st.integers(0, 7),
              st.sampled_from(CELL_VALUES)),
    st.tuples(st.sampled_from(["extra_column", "drop_column", "blank_line"]),
              st.integers(0, 49)),
    st.tuples(st.sampled_from(["crlf", "bom"])),
    st.tuples(st.just("byte"), st.integers(0, 10**4), st.integers(0x80, 0xFF)))
MODEL_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(1, 2000)),
    st.tuples(st.just("header"), st.integers(0, 3),
              st.sampled_from([0, -1, 1, 3, 7, 2**40, 2**63 - 1, -2**63])),
    st.tuples(st.just("magic"), st.integers(0, 7)),
    st.tuples(st.just("weight"), st.integers(0, 10**6),
              st.sampled_from([math.nan, math.inf, -math.inf, 1e308])))


def edit_dataset(data, edits):
    """Dataset bytes with edits applied: a cell replaced, a field added or
    dropped, or a blank line inserted, on one line (0 is the header); or
    CRLF line ends, or a byte-order mark; then, after encoding, a byte that
    is not ASCII inserted."""
    lines = data.decode().splitlines()
    end, bom, inserted = "\n", "", []
    for kind, *where in edits:
        if kind == "byte":
            inserted.append(where)
        elif kind == "crlf":
            end = "\r\n"
        elif kind == "bom":
            bom = "\ufeff"
        elif kind == "blank_line":
            lines.insert(where[0] % (len(lines) + 1), "")
        else:
            row = where[0] % len(lines)
            cells = lines[row].split(",")
            if kind == "cell":
                cells[where[1] % len(cells)] = where[2]
            elif kind == "extra_column":
                cells.append("0")
            else:
                cells.pop()
            lines[row] = ",".join(cells)
    data = bytearray((bom + end.join(lines) + end).encode())
    for at, byte in inserted:
        data.insert(at % (len(data) + 1), byte)
    return bytes(data)


def edit_model(data, edits):
    """Model bytes with edits applied: a header dimension or a weight
    overwritten, a magic byte flipped, then the file cut short by some
    bytes."""
    data = bytearray(data)
    for kind, *where in sorted(edits, key=lambda e: e[0] == "truncate"):
        if kind == "truncate":
            del data[-(where[0] % len(data)) - 1:]
        elif kind == "header":
            struct.pack_into("<q", data, len(MODEL_MAGIC) + 8 * where[0], where[1])
        elif kind == "magic":
            data[where[0]] ^= 0xFF
        else:
            n_weights = (len(data) - len(MODEL_MAGIC) - 32) // 8
            struct.pack_into("<d", data, len(MODEL_MAGIC) + 32 + 8 * (where[0] % n_weights),
                             where[1])
    return bytes(data)


def check_file_commands(dataset, model, edited, loader, commands):
    """Run each command, which reads a dataset file and a model file of
    these bytes, through main.  Each exits 0 with its outputs written;
    exits 1 with one `error:` line naming the edited one of the two files;
    or, only when the edited file loads, exits 2 for a numerical failure.
    No exception escapes main."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cfg = write_config(tmp)
        ds, ckpt = tmp / "ds.csv", tmp / "model.bin"
        ds.write_bytes(dataset)
        ckpt.write_bytes(model)
        paths = {"dataset": ds, "model": ckpt}
        runs = {
            "train": (["train", "--config", str(cfg), "--dataset", str(ds),
                       "--mode", "batch_hard", "--epochs", "1", "--out", str(tmp / "run")],
                      [tmp / "run" / "report.csv", tmp / "run" / "checkpoint.bin"]),
            "eval": (["eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
                      "--out", str(tmp / "metrics.csv")], [tmp / "metrics.csv"]),
            "eval_pca": (["eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
                          "--target-dim", "2", "--out", str(tmp / "pca.csv")],
                         [tmp / "pca.csv"]),
        }
        for command in commands:
            argv, outputs = runs[command]
            code, err = run_cli(argv)
            assert "Traceback" not in err
            if code == 0:
                assert all(p.exists() for p in outputs), (command, err)
                continue
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, err)
            if code == 2:
                loader(paths[edited])  # raises if the edited file does not load
            else:
                assert code == 1 and str(paths[edited]) in lines[0], (command, err)


@given(st.lists(DATASET_EDITS, min_size=1, max_size=2))
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
def test_train_and_eval_exit_cleanly_on_any_dataset_file(edits):
    dataset, model = valid_files()
    check_file_commands(edit_dataset(dataset, edits), model, "dataset", synthetic.load,
                        ["train", "eval", "eval_pca"])


@given(st.lists(MODEL_EDITS, min_size=1, max_size=2, unique_by=lambda e: e[0]))
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
def test_eval_exits_cleanly_on_any_model_file(edits):
    dataset, model = valid_files()
    check_file_commands(dataset, edit_model(model, edits), "model", load_model,
                        ["eval", "eval_pca"])


# --------------------------------------------------------------- tune-demo

def test_tune_demo_trace_counting(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["tune-demo", "--seed", "0", "--rounds", "1", "--pool", "1",
                 "--initial", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,phase,lambda,margin,k,p,value,best_so_far"
    assert len(lines) == 1 + 4 + 1  # header + initial design + one proposal


@pytest.mark.parametrize("flags,message", [
    (["--initial", "0", "--rounds", "0"], "--initial: expected an integer >= 1, got '0'"),
    (["--initial", "0"], "--initial: expected an integer >= 1, got '0'"),
    (["--rounds", "-1"], "--rounds: expected an integer >= 0, got '-1'"),
    (["--pool", "0"], "--pool: expected an integer >= 1, got '0'"),
], ids=["no_evaluations", "no_initial", "negative_rounds", "empty_pool"])
def test_tune_demo_bad_counts_exit_1(tmp_path, capsys, flags, message):
    out = tmp_path / "trace.csv"
    assert main(["tune-demo", "--seed", "0", "--out", str(out)] + flags) == 1
    assert capsys.readouterr().err == f"error: argument {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["tune-demo", "--bogus"], "unrecognized arguments: --bogus"),
    (["train", "--config", "c.json"], "the following arguments are required: --dataset"),
    ([], "the following arguments are required: command"),
], ids=["unknown_flag", "missing_flag", "no_command"])
def test_usage_errors_exit_1_on_one_line(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tune-demo", "-h"])
    assert exc.value.code == 0
    assert "--rounds" in capsys.readouterr().out


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


def test_report_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "report.csv"
    path.write_bytes(b"phase,candidate\n\xff\n")
    assert main(["report", "--report", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")


def test_report_short_row_exits_1(tmp_path, capsys):
    path = tmp_path / "report.csv"
    header = "phase,candidate,lambda,margin,k,p,lr,mean_ce,mean_gbh,mean_total"
    path.write_text(f"{header}\ntrain,0,1,0.2,1,1,0.001,0.5,0,0.5\ntrain,0,1,0.2\n")
    assert main(["report", "--report", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: line 3 does not have")
