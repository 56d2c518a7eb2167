"""Command-line interface.

Subcommands: gen-data, train, eval, baseline, verify. Exit codes: 0 success,
1 runtime failure (bad files, training divergence, failed verification),
2 usage errors. Commands run with numpy's floating-point overflow and invalid
operations raised, so a numeric blowup ends as one `error:` line too. Run it as
`mice`, `python -m mice` or `python -m mice.cli`.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .baselines import best_of_restarts, two_stage_pipeline
from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config, load_synthetic_spec
from .data import generate, load_dataset, save_dataset
from .errors import MiceError
from .metrics import acc, ari, nmi
from .model import entropy_mean
from .numcore import normalize_rows
from .report import write_report
from .trainer import evaluate, fit
from .verify import SUITES, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mice",
        description="Latent-mixture contrastive clustering at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV from a spec file")
    p.add_argument("--spec", required=True, help="key-value spec file")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("train", help="train on a dataset and report final metrics")
    p.add_argument("--config", required=True, help="key-value training config")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", help="checkpoint output path")
    p.add_argument("--report", help="run report JSON output path")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--report", help="run report JSON output path")

    p = sub.add_parser("baseline", help="run a clustering baseline")
    p.add_argument(
        "--which", required=True, choices=("skmeans", "two-stage"), help="baseline family"
    )
    p.add_argument("--config", required=True, help="key-value training config")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--report", help="run report JSON output path")

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=(*SUITES, "all"),
        help="which property suite to run",
    )
    return parser


def _report(args, command, config, truth, labels, wall, post=None, epochs=None, extra=None) -> None:
    """Write the run report to `--report`, if given: nmi, acc and ari when the CSV has
    truth, the occupancy, the posterior entropy when there is a posterior, then `extra`."""
    if not args.report:
        return
    final: dict = {}
    if truth is not None:
        final["nmi"] = nmi(truth, labels)
        final["acc"] = acc(truth, labels)
        final["ari"] = ari(truth, labels)
    final["occupancy"] = np.bincount(np.asarray(labels), minlength=config.num_clusters + 1)[1:].tolist()
    if post is not None:
        final["posterior_entropy"] = entropy_mean(post)
    final.update(extra or {})
    write_report(args.report, command, config, final, wall, epochs=epochs)


def _cmd_gen_data(args) -> int:
    save_dataset(generate(load_synthetic_spec(args.spec)), args.out)
    return 0


def _cmd_train(args) -> int:
    config = load_config(args.config)
    dataset = load_dataset(args.data)
    start = time.perf_counter()
    state, epoch_log = fit(config, dataset)
    labels, post = evaluate(state, dataset)
    wall = time.perf_counter() - start
    if args.out:
        save_checkpoint(state, args.out)
    _report(args, "train", config, dataset.truth, labels, wall, post=post, epochs=epoch_log)
    return 0


def _cmd_eval(args) -> int:
    state = load_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    start = time.perf_counter()
    labels, post = evaluate(state, dataset)
    wall = time.perf_counter() - start
    _report(args, "eval", state.config, dataset.truth, labels, wall, post=post)
    return 0


def _cmd_baseline(args) -> int:
    config = load_config(args.config)
    dataset = load_dataset(args.data)
    start = time.perf_counter()
    if args.which == "skmeans":
        points = normalize_rows(dataset.points)
        labels = best_of_restarts(points, config.num_clusters, config.seed).labels
    else:
        labels = two_stage_pipeline(config, dataset)
    wall = time.perf_counter() - start
    _report(args, "baseline", config, dataset.truth, labels, wall, extra={"which": args.which})
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failures = 0
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
        failures += 0 if result.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code) if exc.code is not None else 0
    handlers = {
        "gen-data": _cmd_gen_data,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "baseline": _cmd_baseline,
        "verify": _cmd_verify,
    }
    try:
        with np.errstate(over="raise", invalid="raise"):
            return handlers[args.command](args)
    except (MiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
