"""Command-line front end.

Subcommands: train, theorem, spectrum, and the grids ablate, schemes and
compare. Configuration for training comes from an optional JSON file (keys
mirror TrainConfig, with an optional "data" object mirroring SyntheticSpec)
plus flag overrides; flags win; a grid reads only "data". TrainConfig and
SyntheticSpec check each value against its field's type and bound. Exit codes:
0 success, 2 bad configuration (or one too large for memory), 3 numeric
failure, 4 I/O or file-format failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (CheckpointFormatError, ConfigError, InvalidInputError,
                     RosaError)
from .experiments import (run_ablation_grid, run_method_comparison,
                          run_scheme_grid, run_theorem_suite, spectrum_report,
                          write_spectrum_csv)
from .fileio import write_json
from .synthetic import SyntheticSpec, SyntheticTask, generate_synthetic
from .training import (TrainConfig, run_training, write_metrics_csv,
                       write_summary_json)


def _check_known(cls, raw: dict, what: str) -> None:
    """Raise ConfigError naming a key of raw that is no field of dataclass
    cls; cls checks each value itself."""
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(sorted(unknown)[0], f"unknown {what}")


def _read_config(args) -> tuple[dict, SyntheticSpec]:
    """The training keys of the --config file, if any, and the task its
    "data" object describes.

    A grid fixes its own training configs, so its config file may hold only
    a "data" object; any other top-level key raises ConfigError.
    """
    raw = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError("config", f"file not found: {args.config}") from exc
        # Bad JSON or UTF-8, a too long int, or nesting too deep to parse.
        except (ValueError, RecursionError) as exc:
            raise ConfigError("config", f"not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config", "top level must be a JSON object")
    data = raw.pop("data", {})
    if args.command == "train":
        _check_known(TrainConfig, raw, "config field")
    elif raw:
        raise ConfigError(", ".join(sorted(raw)),
                          f"not used by '{args.command}', which takes only "
                          f"a \"data\" object from its config file")
    if not isinstance(data, dict):
        raise ConfigError("data", "must be a JSON object")
    _check_known(SyntheticSpec, data, "data config field")
    return raw, SyntheticSpec(**data)


def _build_configs(args) -> tuple[TrainConfig, SyntheticSpec]:
    # The spec is built first: a mistyped data value is named before a
    # range error. Flags win; each train flag's dest is its field's name.
    train_cfg, spec = _read_config(args)
    train_cfg.update({f.name: getattr(args, f.name)
                      for f in dataclasses.fields(TrainConfig)
                      if getattr(args, f.name) is not None})
    return TrainConfig(**train_cfg), spec


def _ensure_out(args) -> Path:
    """Make --out; every command does so before its work, not after it."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    config, spec = _build_configs(args)
    out = _ensure_out(args)
    task = generate_synthetic(spec)
    result = run_training(config, task)
    write_metrics_csv(result.records, out / "metrics.csv")
    write_summary_json(result.summary, out / "summary.json")
    save_checkpoint(result.initial_net, out / "initial.rsa1")
    save_checkpoint(result.net, out / "model.rsa1")
    last = result.records[-1]
    print(f"method={config.method} rank={config.rank} epochs={config.epochs} "
          f"lr={config.lr}")
    print(f"final train loss {last.train_loss:.6e}  "
          f"final val loss {last.val_loss:.6e}")
    print(f"trainable params {last.trainable_params}  "
          f"factorize events {result.summary['factorize_events']}")
    print(f"wrote {out / 'metrics.csv'}, {out / 'summary.json'}, "
          f"{out / 'initial.rsa1'}, {out / 'model.rsa1'}")
    return 0


# Each `rosa theorem` flag and the run_theorem_suite parameter it sets.
_THEOREM_FLAGS = {"--samples": "n", "--inputs": "d", "--outputs": "p",
                  "--residual-rank": "residual_rank", "--ranks": "ranks",
                  "--seed": "seed"}


def cmd_theorem(args) -> int:
    out = _ensure_out(args) if args.out else None
    # Only the flags given reach the suite; it holds the default instance.
    given = {name: getattr(args, name) for name in _THEOREM_FLAGS.values()
             if hasattr(args, name)}
    if "ranks" in given:
        given["ranks"] = tuple(given["ranks"])
    report = run_theorem_suite(**given)
    inst = report["instance"]
    print(f"instance: n={inst['n']} d={inst['d']} p={inst['p']} "
          f"residual rank {inst['residual_rank']} seed {inst['seed']}")
    print(f"{'rank':>4} {'T_pred':>6} {'observed':>8} {'rel_err@T':>12} "
          f"{'rel_err@T-1':>12} {'bound_ok':>8}")
    for case in report["cases"]:
        before = case["rel_error_before_t"]
        before_text = "-" if before is None else f"{before:.3e}"
        print(f"{case['rank']:>4} {case['t_predicted']:>6} "
              f"{case['observed_step']!s:>8} {case['rel_error_at_t']:>12.3e} "
              f"{before_text:>12} {str(case['bound_attained']):>8}")
    noisy = report["noisy_case"]
    print(f"noisy plateau {noisy['plateau_error']:.6e} vs irreducible "
          f"{noisy['irreducible_error']:.6e} ok={noisy['plateau_ok']}")
    print(f"all_ok={report['all_ok']}")
    if out:
        write_json(report, out / "theorem.json")
        print(f"wrote {out / 'theorem.json'}")
    return 0 if report["all_ok"] else 3


def cmd_spectrum(args) -> int:
    initial = load_checkpoint(args.initial)
    final = load_checkpoint(args.final)
    out = _ensure_out(args)
    report = spectrum_report(initial, final)
    write_spectrum_csv(report, out / "spectrum.csv")
    for entry in report:
        sigma = entry["sigma"]
        cumulative = entry["cumulative"]
        if cumulative and cumulative[-1] > 0.0:
            k90 = next(j for j, c in enumerate(cumulative) if c >= 0.9) + 1
            print(f"layer {entry['layer']}: top sigma {sigma[0]:.4e}, "
                  f"{k90} of {len(sigma)} directions hold 90% of the mass")
        else:
            print(f"layer {entry['layer']}: no drift")
    print(f"wrote {out / 'spectrum.csv'}")
    return 0


def _grid_common(args) -> tuple[SyntheticTask, Path]:
    """The task of a grid command and its output directory."""
    _, spec = _read_config(args)
    out = _ensure_out(args)
    return generate_synthetic(spec), out


def cmd_ablate(args) -> int:
    task, out = _grid_common(args)
    grid = run_ablation_grid(task, args.rank, epochs=args.epochs,
                             seed=args.seed)
    print(f"{'variant':>20} {'best_lr':>8} {'final_val_loss':>14}")
    for row in grid["rows"]:
        print(f"{row['variant']:>20} {row['best_lr']:>8} "
              f"{row['final_val_loss']:>14.6e}")
    print(f"expected ordering (full <= init+factorize <= init-only) held: "
          f"{grid['expected_order_held']}")
    write_json(grid, out / "ablate.json")
    print(f"wrote {out / 'ablate.json'}")
    return 0


def cmd_schemes(args) -> int:
    task, out = _grid_common(args)
    grid = run_scheme_grid(task, args.rank, epochs=args.epochs,
                           seed=args.seed)
    print(f"{'scheme':>8} {'best_lr':>8} {'final_val_loss':>14}")
    for row in grid["rows"]:
        print(f"{row['scheme']:>8} {row['best_lr']:>8} "
              f"{row['final_val_loss']:>14.6e}")
    write_json(grid, out / "schemes.json")
    print(f"wrote {out / 'schemes.json'}")
    return 0


def cmd_compare(args) -> int:
    task, out = _grid_common(args)
    entries = [("ft", None)] + [(method, rank) for method in ("rosa", "lora")
                                for rank in args.ranks]
    cells = run_method_comparison(task, entries, epochs=args.epochs,
                                  seed=args.seed)
    print(f"{'method':>6} {'rank':>4} {'best lr':>8} {'final val loss':>14}")
    for cell in cells:
        rank = "-" if cell["rank"] is None else cell["rank"]
        print(f"{cell['method']:>6} {rank:>4} {cell['best_lr']:>8g} "
              f"{cell['final_val_loss']:>14.6e}")
    print()
    print("per-layer drift ranks (numerical rank of the weight move):")
    for cell in cells:
        ranks = cell.pop("result").summary["final_residual_ranks"]
        cell["final_residual_ranks"] = ranks
        if cell["method"] != "ft":
            print(f"  {cell['method']} r={cell['rank']}: {ranks}")
    write_json(cells, out / "compare.json")
    print(f"wrote {out / 'compare.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosa",
        description="Subspace adaptation experiments: training, exact "
                    "solvers, and spectrum analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one adapted network")
    train.add_argument("--config", help="JSON config file")
    train.add_argument("--out", required=True, help="output directory")
    # One flag per TrainConfig field: --field-name, its dest the field's
    # name, its type the annotation's (not None). TrainConfig checks the
    # value, as for a config file; a choice's metavar only lists them.
    hints = typing.get_type_hints(TrainConfig)
    for f in dataclasses.fields(TrainConfig):
        kind = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
        choices = f.metadata.get("choices")
        train.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=kind, metavar="{%s}" % ",".join(choices)
                           if choices else None)
    train.set_defaults(func=cmd_train)

    theorem = sub.add_parser("theorem", help="run the exact-convergence suite")
    for flag, name in _THEOREM_FLAGS.items():
        theorem.add_argument(flag, type=int, dest=name, default=argparse.SUPPRESS,
                             nargs="+" if name == "ranks" else None)
    theorem.add_argument("--out", help="optional output directory")
    theorem.set_defaults(func=cmd_theorem)

    spectrum = sub.add_parser("spectrum",
                              help="residual spectrum between two checkpoints")
    spectrum.add_argument("initial", help="checkpoint at initialization")
    spectrum.add_argument("final", help="checkpoint after training")
    spectrum.add_argument("--out", required=True, help="output directory")
    spectrum.set_defaults(func=cmd_spectrum)

    ablate = sub.add_parser("ablate", help="staged-variant comparison grid")
    schemes = sub.add_parser("schemes", help="sampling-scheme comparison grid")
    compare = sub.add_parser("compare", help="method comparison grid")
    for grid_parser in (ablate, schemes, compare):
        grid_parser.add_argument("--config", help="JSON config file (data section)")
        grid_parser.add_argument("--out", required=True, help="output directory")
        grid_parser.add_argument("--epochs", type=int, default=100)
        grid_parser.add_argument("--seed", type=int, default=0)
    for grid_parser in (ablate, schemes):
        grid_parser.add_argument("--rank", type=int, default=12)
    compare.add_argument("--ranks", type=int, nargs="+", default=[2, 6, 12])
    ablate.set_defaults(func=cmd_ablate)
    schemes.set_defaults(func=cmd_schemes)
    compare.set_defaults(func=cmd_compare)
    return parser


# The exit code of each failure. The first type that matches wins, so a
# subclass of RosaError comes before it.
_EXIT_CODES = {ConfigError: 2, InvalidInputError: 2, MemoryError: 2,
               CheckpointFormatError: 4, OSError: 4,
               RosaError: 3, np.linalg.LinAlgError: 3, KeyboardInterrupt: 130}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A diverging run raises NumericError; NumPy's overflow warnings
        # on the way there would only report it a second time.
        with np.errstate(all="ignore"):
            return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
