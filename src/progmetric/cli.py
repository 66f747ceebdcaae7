"""Command-line front door.

Subcommands: gen-data, train, eval, tune-demo, report.  All numeric output
goes to files; a short human summary goes to standard output.  Exit status
is 0 only when every declared output was written, 1 for bad input or I/O
failures, and 2 when training or tuning fails numerically.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import synthetic
from .bayes_opt import NumericalError
from .config import RunConfig, load_config
from .evaluation import _check_finite, evaluate, metrics_csv_lines, pca_apply, pca_reduce
from .losses import HyperParams, InvalidInputError
from .model import NonFiniteGradientError, embed
from .sampler import InsufficientDataError
from .trainer import (
    TRAIN_MODES,
    RunReport,
    load_model,
    run_fixed,
    run_pla,
    save_model,
)
from .tuning import run_tuning, trace_csv_lines


def _write_lines(path, lines):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    return cfg


def cmd_gen_data(args):
    cfg = _load_run_config(args)
    spec = dataclasses.replace(cfg.data, seed=cfg.seed)
    dataset = synthetic.generate(spec)
    rng = np.random.default_rng(cfg.seed + 1)
    dataset = synthetic.split(dataset, cfg.split.query_per_identity, rng,
                              open_set=cfg.split.open_set,
                              test_fraction=cfg.split.test_fraction)
    out = Path(args.dataset or Path(cfg.out_dir) / "dataset.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    synthetic.save(dataset, out)
    print(f"wrote {len(dataset.labels)} samples "
          f"({spec.n_identities} identities) to {out}")
    return 0


def cmd_train(args):
    if args.mode == "pla" and args.epochs is not None:
        raise ValueError("--epochs is the fixed modes' budget; "
                         "pla mode trains for the config's pla.max_epochs")
    cfg = _load_run_config(args)
    dataset = synthetic.load(args.dataset)
    features, labels = synthetic.train_partition(dataset)
    model_cfg = dataclasses.replace(cfg.model, d_in=features.shape[1])
    out = Path(cfg.out_dir)
    budget = next(n for n in (args.epochs, cfg.epochs, cfg.pla.max_epochs) if n is not None)
    try:
        if args.mode == "pla":
            result = run_pla(features, labels, cfg.pla, model_cfg, cfg.optimizer,
                             cfg.seed)
        else:
            result = run_fixed(features, labels, args.mode, cfg.fixed_w, budget,
                               model_cfg, cfg.optimizer, cfg.batch, cfg.seed)
    except InsufficientDataError as exc:
        raise InsufficientDataError(f"{args.dataset}: {exc}") from exc
    report = result.report
    _write_lines(out / "report.csv", report.epoch_csv_lines())
    if args.mode == "pla":
        _write_lines(out / "explorations.csv", report.exploration_csv_lines())
        _write_lines(out / "chosen.csv",
                     [f"round,{HyperParams.CSV_HEADER}"]
                     + [f"{i + 1},{w.csv_fields()}"
                        for i, w in enumerate(report.chosen)])
    save_model(out / "checkpoint.bin", result.best_params)
    print(f"mode={args.mode} epochs={report.total_epochs} "
          f"best_loss={report.best_loss:.6g} -> {out}")
    return 0


def cmd_eval(args):
    params = load_model(args.checkpoint)
    dataset = synthetic.load(args.dataset)
    if dataset.features.shape[1] != params.config.d_in:
        raise ValueError(f"{args.dataset} has {dataset.features.shape[1]} features a row, "
                         f"but the model {args.checkpoint} reads {params.config.d_in}")
    try:
        qg = synthetic.query_gallery(dataset)
        q_emb = embed(params, qg.query_embeddings)
        g_emb = embed(params, qg.gallery_embeddings)
        if args.target_dim is not None:
            # checked per side, as evaluate does, so that an error names the
            # side and its row rather than a row of the stack
            _check_finite(q_emb, "query")
            _check_finite(g_emb, "gallery")
            pca = pca_reduce(np.vstack([g_emb, q_emb]), args.target_dim)
            q_emb = pca_apply(pca, q_emb)
            g_emb = pca_apply(pca, g_emb)
        qg.query_embeddings = q_emb
        qg.gallery_embeddings = g_emb
        metrics = evaluate(qg)
    except (InvalidInputError, np.linalg.LinAlgError) as exc:  # eigh may not converge
        raise InvalidInputError(f"{args.dataset} with model {args.checkpoint}: {exc}") from exc
    out = Path(args.out or "metrics.csv")
    _write_lines(out, metrics_csv_lines(metrics))
    print(f"rank1={metrics.rank1:.4f} map={metrics.map:.4f} "
          f"excluded_queries={metrics.excluded_queries} -> {out}")
    return 0


def cmd_tune_demo(args):
    trace = run_tuning(args.seed, rounds=args.rounds, pool_size=args.pool,
                       n_initial=args.initial)
    out = Path(args.out or "tune_trace.csv")
    _write_lines(out, trace_csv_lines(trace))
    print(f"evaluations={len(trace)} best={trace[-1].best_so_far:.6g} -> {out}")
    return 0


def cmd_report(args):
    path = Path(args.report)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    header = next(RunReport().epoch_csv_lines())
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: not a run report (expected header {header!r})")
    short = [n for n, line in enumerate(lines, start=1) if line.count(",") != header.count(",")]
    if short:
        raise ValueError(f"{path}: line {short[0]} does not have the header's fields")
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines[1:]]
    phases = Counter(r["phase"] for r in rows)
    print(f"{path}: {len(rows)} epochs " +
          " ".join(f"{k}={v}" for k, v in sorted(phases.items())))
    exploit = [r for r in rows if r["phase"] in ("exploit", "train")]
    if exploit:
        last = exploit[-1]
        print(f"final: lambda={last['lambda']} margin={last['margin']} "
              f"k={last['k']} p={last['p']} mean_total={last['mean_total']}")
        best = min(float(r["mean_total"]) for r in exploit)
        print(f"lowest epoch mean total: {best:.6g}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input: one `error:` line and exit 1
    from `main`, where argparse would print its usage and exit 2."""

    def error(self, message):
        raise ValueError(message)


def _int_at_least(low):
    """argparse type: an integer >= low; argparse names the flag on error."""
    def parse(text):
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return parse


def build_parser():
    parser = _Parser(
        prog="progmetric",
        description="Progressive metric-learning experiments on synthetic identity clusters")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and save a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--dataset", help="explicit dataset file path")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model in one of the supported modes")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", choices=TRAIN_MODES, default="pla")
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--epochs", type=_int_at_least(1),
                   help="epoch budget, fixed modes only (pla mode uses pla.max_epochs)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="retrieval metrics for a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--target-dim", type=_int_at_least(1), dest="target_dim")
    p.add_argument("--out", help="metrics file path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tune-demo",
                       help="optimizer self-test on a built-in quadratic objective")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--rounds", type=_int_at_least(0), default=30)
    p.add_argument("--pool", type=_int_at_least(1), default=256)
    p.add_argument("--initial", type=_int_at_least(1), default=8)
    p.add_argument("--out", help="trace file path")
    p.set_defaults(func=cmd_tune_demo)

    p = sub.add_parser("report", help="summarize a run report CSV")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # overflow shows as the typed error it leads to, not as a warning line
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, NonFiniteGradientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
