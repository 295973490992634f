"""Suite runner CLI.

    verify --suite <name> --q <complex> --params <path> --seed <u64>
           --tol <real> --report <path> [--emit-csv <target>:<path>]
           [--negative-controls]

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
configuration.  Reports are line-delimited JSON records followed by a
summary object; rerunning with the same seed reproduces them byte for
byte.  Environment overrides: QTAYLOR_TOL (eps_rel; like --tol it sets no
truncation depth) and QTAYLOR_MAX_TERMS (a user depth cap, none by default).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, DomainError
from .suites import (DECAY_TARGETS, SUITE_NAMES, SuiteConfig,
                     emit_decay_csv, parse_complex, run_suites)


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
    """kind(value), or a ConfigError naming the setting."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
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

    lo, hi = file_cfg.get("modulus_range", (0.3, 0.9))
    if not 0.0 < lo <= hi:
        raise ConfigError("modulus_range must satisfy 0 < lo <= hi")

    if "explicit" in file_cfg and not file_cfg["explicit"]:
        raise ConfigError("explicit parameter set is empty")

    eps_rel = args.tol if args.tol is not None else file_cfg.get("eps_rel")
    eps_rel = os.environ.get("QTAYLOR_TOL", eps_rel)
    max_terms = os.environ.get("QTAYLOR_MAX_TERMS", file_cfg.get("max_terms"))

    cfg = SuiteConfig(
        suites=suites, q=q, seed=seed, draws=draws,
        modulus_lo=float(lo), modulus_hi=float(hi),
        eps_rel=_number(float, eps_rel, "tolerance") if eps_rel is not None else None,
        max_terms=(_number(int, max_terms, "max_terms")
                   if max_terms is not None else None),
        negative_controls=bool(args.negative_controls
                               or file_cfg.get("negative_controls", False)),
        explicit_kernel=tuple(file_cfg.get("explicit", ()) or ()),
    )
    try:
        cfg.context()
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _emit_report(report, path: str | None) -> None:
    lines = [json.dumps(rec.to_dict(), sort_keys=True) for rec in report.records]
    lines.append(json.dumps({"summary": report.summary()}, sort_keys=True))
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text)
    for rec in report.records:
        status = "pass" if rec.passed else "FAIL"
        print(f"[{status}] {rec.suite}/{rec.check} anchor={rec.anchor} "
              f"residual={rec.residual:.3e} tol={rec.tol:.1e}"
              + (f"  ({rec.detail})" if rec.detail else ""))
    summary = report.summary()
    verdict = "PASS" if summary["passed"] else "FAIL"
    print(f"{verdict}: {len(report.records)} checks over "
          f"{len(summary['suites'])} suites")


def _emit_csv(cfg: SuiteConfig, spec: str) -> None:
    if ":" not in spec:
        raise ConfigError("--emit-csv expects <target>:<path>")
    target, path = spec.split(":", 1)
    count = emit_decay_csv(cfg, target, path)
    print(f"wrote {count} decay rows for {target} to {path}")


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
        report = run_suites(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    _emit_report(report, args.report)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
