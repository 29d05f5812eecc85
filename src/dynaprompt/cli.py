"""Command-line surface.

Subcommands: pretrain, finetune, eval, inspect-pool, gradcheck, gen-corpus.
Exit codes: 0 success, 1 usage/config error, 2 numeric failure, 3 I/O error.
"""

from __future__ import annotations

import os

# Desk-scale matrices lose to BLAS thread-spawn overhead; must be set before
# numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import dataclasses
import math
import sys

from .config import ConfigError, ModelConfig
from .corpus import CorpusSpec, corpus_to_json, gen_corpus
from .ndtensor import NumericError
from .pools import IntegrityError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dynaprompt",
                     description="Desk-scale vision-language pre-training "
                                 "with dynamic key-value prompt pools.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", required=needs_config,
                       help="path to the JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("pretrain", help="run the pre-training loop")
    common(p)

    p = sub.add_parser("finetune", help="adapt a checkpoint to one task")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--steps", type=int, default=None)

    p = sub.add_parser("eval", help="evaluate a fine-tuned checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", required=True)

    p = sub.add_parser("inspect-pool",
                       help="dump pool keys, usage and key cosines to CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default="out")

    p = sub.add_parser("gradcheck", help="finite-difference gradient sweep")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-5)

    p = sub.add_parser("gen-corpus", help="write the synthetic corpus as JSON")
    common(p)
    p.add_argument("--pairs", type=int, default=None)

    return parser


def _load_config(args) -> ModelConfig:
    try:
        config = ModelConfig.load(args.config)
    except FileNotFoundError as exc:
        raise ConfigError(f"--config: cannot read {args.config!r}: {exc}") from exc
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)  # validates it
    return config


def _cmd_pretrain(args) -> int:
    from .harness import default_corpus, run_pretrain
    config = _load_config(args)
    corpus = default_corpus(config)
    ckpt, metrics = run_pretrain(config, corpus, args.out)
    print(f"checkpoint: {ckpt}")
    print(f"metrics: {metrics}")
    return EXIT_OK


def _cmd_finetune(args) -> int:
    from .harness import default_corpus, run_finetune
    config = _load_config(args)
    corpus = default_corpus(config)
    ckpt, metrics = run_finetune(config, corpus, args.checkpoint, args.task,
                                 args.out, steps=args.steps)
    print(f"checkpoint: {ckpt}")
    print(f"metrics: {metrics}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .harness import default_corpus, run_eval
    config = _load_config(args)
    corpus = default_corpus(config)
    metrics_path, results = run_eval(config, corpus, args.checkpoint,
                                     args.task, args.out)
    for metric, value in results.items():
        print(f"{args.task} {metric}: {value:.6f}")
    print(f"metrics: {metrics_path}")
    return EXIT_OK


def _cmd_inspect_pool(args) -> int:
    from .harness import inspect_pool
    for path in inspect_pool(args.checkpoint, args.out):
        print(path)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    from .ndtensor import run_op_suite
    from .objectives import end_to_end_fd_case
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        # inf passes every case; 0, negatives and nan fail every case
        raise ConfigError(f"--tol must be finite and positive, got {args.tol}")
    ok, worst = run_op_suite(seeds=args.seeds, tol=args.tol)
    for name in sorted(worst):
        status = "PASS" if worst[name] < args.tol else "FAIL"
        print(f"{status} {name:<20} max_rel_error={worst[name]:.3e}")
    e2e = end_to_end_fd_case(seeds=args.seeds, tol=args.tol)
    status = "PASS" if e2e < args.tol else "FAIL"
    print(f"{status} {'combined_loss':<20} max_rel_error={e2e:.3e}")
    if ok and e2e < args.tol:
        return EXIT_OK
    print("gradient check failed", file=sys.stderr)
    return EXIT_NUMERIC


def _cmd_gen_corpus(args) -> int:
    config = _load_config(args)
    spec = CorpusSpec.from_model_config(config, n_pairs=args.pairs)
    corpus = gen_corpus(spec, config.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "corpus.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corpus_to_json(corpus))
    print(path)
    return EXIT_OK


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "eval": _cmd_eval,
    "inspect-pool": _cmd_inspect_pool,
    "gradcheck": _cmd_gradcheck,
    "gen-corpus": _cmd_gen_corpus,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, IntegrityError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
