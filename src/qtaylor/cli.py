"""Suite runner CLI.

    verify --suite <name> --q <complex> --params <path> --seed <u64>
           --tol <real> --report <path> [--emit-csv <target>:<path>]
           [--negative-controls]

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
configuration (a bad setting, or a params, report or CSV path that cannot be
read or written).  Reports are line-delimited JSON records followed by a
summary object; rerunning with the same seed reproduces them byte for
byte.  Environment overrides: QTAYLOR_TOL (eps_rel; like --tol it sets no
truncation depth) and QTAYLOR_MAX_TERMS (a user depth cap, none by default).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, DomainError, ZeroDenominator
from .suites import (DECAY_TARGETS, SUITE_NAMES, SuiteConfig, emit_decay_csv,
                     kernel_params_from_config, parse_complex, run_suites)


def _load_params_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return raw


def _number(kind, value, name: str):
    """kind(value), or a ConfigError naming the setting.

    A boolean is no number, and an int setting takes no fractional value."""
    if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc


def build_config(args: argparse.Namespace) -> SuiteConfig:
    file_cfg = _load_params_file(args.params) if args.params else {}

    def pick(key, cli_value, default):
        if cli_value is not None:
            return cli_value
        return file_cfg.get(key, default)

    suite = pick("suite", args.suite, "all")
    if suite == "all":
        suites = SUITE_NAMES
    elif suite in SUITE_NAMES:
        suites = (suite,)
    else:
        raise ConfigError(f"unknown suite {suite!r}; choose from "
                          f"{('all',) + SUITE_NAMES}")

    q_text = pick("q", args.q, "0.45")
    q = parse_complex(str(q_text))
    if not 0.0 < abs(q) < 1.0:
        raise ConfigError(f"q must have modulus in (0, 1), got {q_text}")

    seed = _number(int, pick("seed", args.seed, 20240901), "seed")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must fit in 64 bits")
    draws = _number(int, pick("draws", args.draws, 12), "draws")
    if draws < 1:
        raise ConfigError("draws must be positive")

    bounds = file_cfg.get("modulus_range", (0.3, 0.9))
    if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
        raise ConfigError(f"modulus_range must be a pair [lo, hi], got {bounds!r}")
    lo, hi = (_number(float, v, "modulus_range") for v in bounds)
    if not 0.0 < lo <= hi:
        raise ConfigError("modulus_range must satisfy 0 < lo <= hi")

    explicit = file_cfg.get("explicit", [])
    if not isinstance(explicit, list) or ("explicit" in file_cfg and not explicit):
        raise ConfigError("explicit must be a nonempty list of {b, c, d, e} objects")

    eps_rel = args.tol if args.tol is not None else file_cfg.get("eps_rel")
    eps_rel = os.environ.get("QTAYLOR_TOL", eps_rel)
    max_terms = os.environ.get("QTAYLOR_MAX_TERMS", file_cfg.get("max_terms"))

    cfg = SuiteConfig(
        suites=suites, q=q, seed=seed, draws=draws,
        modulus_lo=lo, modulus_hi=hi,
        eps_rel=_number(float, eps_rel, "tolerance") if eps_rel is not None else None,
        max_terms=(_number(int, max_terms, "max_terms")
                   if max_terms is not None else None),
        negative_controls=bool(args.negative_controls
                               or file_cfg.get("negative_controls", False)),
        explicit_kernel=tuple(explicit),
    )
    try:
        ctx = cfg.context()
        for entry in explicit:
            kernel_params_from_config(entry, ctx)
    except (DomainError, ZeroDenominator) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _emit_report(report, out) -> None:
    """Print the verdicts; write the report to out, an open file (emptied first), if any."""
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True), built once
    lines = [encode(rec.to_dict()) for rec in report.records]
    summary = report.summary()
    lines.append(encode({"summary": summary}))
    if out is not None:
        if out.seekable() and out.tell():  # opened for appending at its end: an earlier report
            out.truncate(0)
        out.write("\n".join(lines) + "\n")
    for rec in report.records:
        status = "pass" if rec.passed else "FAIL"
        print(f"[{status}] {rec.suite}/{rec.check} anchor={rec.anchor} "
              f"residual={rec.residual:.3e} tol={rec.tol:.1e}"
              + (f"  ({rec.detail})" if rec.detail else ""))
    verdict = "PASS" if summary["passed"] else "FAIL"
    print(f"{verdict}: {len(report.records)} checks over "
          f"{len(summary['suites'])} suites")


def _emit_csv(cfg: SuiteConfig, spec: str) -> None:
    if ":" not in spec:
        raise ConfigError("--emit-csv expects <target>:<path>")
    target, path = spec.split(":", 1)
    count = emit_decay_csv(cfg, target, path)
    print(f"wrote {count} decay rows for {target} to {path}")


@functools.cache  # built once per process, when first needed
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run numerical verification suites for the well-poised "
                    "q-Taylor calculus.")
    parser.add_argument("--suite", choices=("all",) + SUITE_NAMES, default=None,
                        help="suite to run (default: all)")
    parser.add_argument("--q", default=None,
                        help="base q as 're+imi' text (default 0.45)")
    parser.add_argument("--params", default=None,
                        help="JSON config file mirroring the runner fields")
    parser.add_argument("--seed", type=int, default=None,
                        help="64-bit seed fixing every sampled parameter")
    parser.add_argument("--draws", type=int, default=None,
                        help="random draws per randomized check family")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the context's relative tolerance")
    parser.add_argument("--report", default=None,
                        help="path for the JSONL report")
    parser.add_argument("--emit-csv", default=None, metavar="TARGET:PATH",
                        help=f"write a decay curve; targets: {', '.join(DECAY_TARGETS)}")
    parser.add_argument("--negative-controls", action="store_true",
                        help="append sabotaged checks that must be reported "
                             "as failures")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.emit_csv:
            _emit_csv(cfg, args.emit_csv)
            return 0
        # the report is opened once, so an unwritable path fails before any suite runs
        with open(args.report, "a") if args.report else contextlib.nullcontext() as out:
            report = run_suites(cfg)
            _emit_report(report, out)
    except (ConfigError, OSError) as exc:  # OSError: a params or output path that fails
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
