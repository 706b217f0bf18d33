"""Command-line front end for the norm-bound library.

Usage:
    dirichletops bounds --c1-re 2 --c2-abs 0.5
    dirichletops matrix-norm --c1-re 2 --c2-abs 0.5 --rows 60 --cols 5000
    dirichletops approx-numbers --c1-re 2 --c2-abs 0.5 --n-max 10
    dirichletops verify-lemmas
    dirichletops figure --output figure1.csv

Every command accepts the same symbol, truncation, precision, and output
flags.  A config file of key=value lines may supply any of them; explicit
flags win over the file, which wins over built-in defaults.

Documents are deterministic: the same configuration produces byte-identical
output.  Numbers are printed to at most 12 significant digits.  JSON
documents carry the configuration echo and the library version; CSV uses a
comma separator, '.' decimals, a header row, and LF line endings.

Exit status: 0 success, 1 verification failure, 2 invalid input,
3 resource limit.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from .bounds import approx_number_bound, norm_bounds
from .errors import (
    BudgetExhaustedError,
    DomainError,
    InvalidSymbolError,
    MatrixSizeError,
    NonCompactError,
)
from .special_functions import PrecisionBudget, crossing_root, linspace, lower_bound_f
from .special_functions import lower_bound_g, verification_suite, zeta
from .symbol import DirichletSymbol

_FIGURE_RANGE = (0.1, 10.0)


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: symbol, truncation, precision, output."""

    c1_re: float = 2.0
    c1_im: float = 0.0
    c2_abs: float = 0.5
    c2_arg: float = 0.0
    q: int = 2
    rows: int = 40
    cols: int = 2000
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_terms: int = 10**6
    format: str = "json"
    output: str | None = None
    n_max: int = 10
    points: int = 200
    inject_fault: bool = False
    dump_matrix: str | None = None

    def symbol(self) -> DirichletSymbol:
        c1 = complex(self.c1_re, self.c1_im)
        c2 = self.c2_abs * cmath.exp(1j * self.c2_arg)
        return DirichletSymbol(c1, c2, self.q)

    def budget(self) -> PrecisionBudget:
        return PrecisionBudget(
            abs_tol=self.abs_tol, rel_tol=self.rel_tol, max_terms=self.max_terms
        )


_DEFAULTS = RunConfig()

# config-file keys and their parsers; `tol` sets both tolerance fields
_FILE_KEY_TYPES = {
    "c1_re": float,
    "c1_im": float,
    "c2_abs": float,
    "c2_arg": float,
    "q": int,
    "rows": int,
    "cols": int,
    "tol": float,
    "abs_tol": float,
    "rel_tol": float,
    "max_terms": int,
    "format": str,
    "output": str,
    "n_max": int,
    "points": int,
}


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip().replace("-", "_")
        if key not in _FILE_KEY_TYPES:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _FILE_KEY_TYPES[key](value.strip())
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _merge_config(
    args: argparse.Namespace, default_overrides: dict | None = None
) -> RunConfig:
    file_values = _read_config_file(args.config) if args.config else {}
    # a bare `tol` (flag or file key) sets both tolerance fields
    tol = args.tol if args.tol is not None else file_values.get("tol")
    if tol is not None:
        file_values.setdefault("abs_tol", tol)
        file_values.setdefault("rel_tol", tol)
        if args.tol is not None:
            file_values["abs_tol"] = file_values["rel_tol"] = tol
    resolved = {}
    for field in fields(RunConfig):
        flag = getattr(args, field.name, None)
        if flag is not None:
            resolved[field.name] = flag
        elif field.name in file_values:
            resolved[field.name] = file_values[field.name]
        elif default_overrides and field.name in default_overrides:
            resolved[field.name] = default_overrides[field.name]
        else:
            resolved[field.name] = getattr(_DEFAULTS, field.name)
    # store_true flags resolve False as "absent"; treat them directly
    resolved["inject_fault"] = bool(getattr(args, "inject_fault", False))
    cfg = RunConfig(**resolved)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if cfg.format not in ("json", "csv"):
        raise DomainError(f"format must be json or csv, got {cfg.format!r}")
    if cfg.rows < 0:
        raise DomainError(f"rows must be >= 0, got {cfg.rows}")
    if cfg.cols < 1:
        raise DomainError(f"cols must be >= 1, got {cfg.cols}")
    if cfg.n_max < 0:
        raise DomainError(f"n-max must be >= 0, got {cfg.n_max}")
    if cfg.points < 2:
        raise DomainError(f"points must be >= 2, got {cfg.points}")
    cfg.budget()  # precision invariants checked by PrecisionBudget


def _fmt(cell) -> str:
    """One CSV cell: 12 significant digits, lowercase booleans, '' for None."""
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        if math.isnan(cell):
            return "nan"
        if math.isinf(cell):
            return "inf" if cell > 0 else "-inf"
        return f"{cell:.12g}"
    return str(cell)


def _csv_document(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _round_floats(obj):
    """Round every float to 12 significant digits; drop non-finite to null."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(value) for value in obj]
    return obj


def _json_document(command: str, cfg: RunConfig, result: dict) -> str:
    echo = {field.name: getattr(cfg, field.name) for field in fields(RunConfig)}
    doc = {
        "command": command,
        "version": __version__,
        "config": echo,
        "result": result,
    }
    return json.dumps(_round_floats(doc), indent=2) + "\n"


def _record_document(command: str, cfg: RunConfig, code: int, result: dict) -> tuple[int, str]:
    """A one-record result as a one-row CSV table or a JSON document."""
    if cfg.format == "csv":
        return code, _csv_document(list(result), [list(result.values())])
    return code, _json_document(command, cfg, result)


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output:
        with open(cfg.output, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_bounds(cfg: RunConfig) -> tuple[int, str]:
    """Norm bracket and, for compact symbols, the approximation-number law."""
    sym = cfg.symbol()
    report = norm_bounds(sym, cfg.budget())
    result = {
        "symbol_class": report.symbol_class.value,
        "schur_r": report.schur_r,
        "lower_sq": report.lower_sq,
        "upper_sq": report.upper_sq,
        "kernel_lower_sq": report.kernel_lower_sq,
        "approx_prefactor": None,
        "approx_ratio": None,
    }
    if report.symbol_class.value == "compact":
        approx = approx_number_bound(sym)
        result["approx_prefactor"] = approx.prefactor
        result["approx_ratio"] = approx.ratio
    return _record_document("bounds", cfg, 0, result)


def cmd_matrix_norm(cfg: RunConfig) -> tuple[int, str]:
    """Certified norm bracket of the truncation, checked against the theorem's.

    ``lower`` and ``upper`` come from ``operator_norm_estimate``: a proven
    lower bound on the norm of the truncation, hence of the operator, and
    a proven upper bound on the operator norm (the truncation's
    Collatz-Wielandt bound plus the certified tail), both with their
    rounding.  ``within_theorem_bracket`` holds when lower^2 is at most the
    theorem's upper end and upper^2 at least its lower end, each end
    widened only by the certified error of its zeta value, which the
    budget's tolerance bounds.  ``converged`` reports whether the bracket
    reached the relative tolerance, ``iterations`` how many steps that
    took.
    """
    from . import operator_matrix  # numpy loads only for the matrix commands
    sym = cfg.symbol()
    matrix = operator_matrix.build_matrix(sym, cfg.rows, cfg.cols)
    if cfg.dump_matrix:
        operator_matrix.write_matrix(matrix, cfg.dump_matrix)
    estimate = operator_matrix.operator_norm_estimate(matrix, tol=cfg.rel_tol)
    budget = cfg.budget()
    theory = norm_bounds(sym, budget)

    def zeta_error(value: float) -> float:
        return max(budget.abs_tol, budget.rel_tol * value)

    certified = math.isfinite(estimate.upper)
    within = estimate.lower**2 <= theory.upper_sq + zeta_error(theory.upper_sq)
    within = within and estimate.upper**2 >= theory.lower_sq - zeta_error(theory.lower_sq)
    result = {
        "rows": matrix.row_count,
        "cols": matrix.col_count,
        "lower": estimate.lower,
        "upper": estimate.upper if certified else None,
        "lower_sq": estimate.lower**2,
        "upper_sq": estimate.upper**2 if certified else None,
        "upper_status": "certified" if certified else "uncertified",
        "tail_bound": matrix.tail_bound if certified else None,
        "iterations": estimate.iterations,
        "converged": estimate.converged,
        "theory_lower_sq": theory.lower_sq,
        "theory_upper_sq": theory.upper_sq,
        "within_theorem_bracket": within,
    }
    code = 0 if within else 1
    if not within:
        print(
            "error: matrix norm estimate escapes the proven bracket "
            f"(lower_sq={estimate.lower**2!r}, bracket=[{theory.lower_sq!r}, "
            f"{theory.upper_sq!r}]); this signals a bug",
            file=sys.stderr,
        )
    return _record_document("matrix-norm", cfg, code, result)


def cmd_approx_numbers(cfg: RunConfig) -> tuple[int, str]:
    """Table of singular values sigma_{N+1} against the proven decay bound."""
    from . import operator_matrix
    sym = cfg.symbol()
    law = approx_number_bound(sym)  # rejects non-compact symbols
    header = ["N", "computed", "bound", "ratio", "ok"]
    rows: list[list] = []
    failures = 0
    if cfg.n_max > 0:
        matrix = operator_matrix.build_matrix(sym, cfg.rows, cfg.cols)
        available = min(matrix.row_count, matrix.col_count)
        count = min(cfg.n_max + 1, available)
        spectrum = operator_matrix.singular_values(matrix, count)
        for n in range(1, count):
            computed = float(spectrum.values[n])
            bound = law.bound_at(n)
            # bound_at is rounded up, and the spectrum's resolution covers
            # LAPACK's backward error and the build's entry rounding
            ok = computed <= bound + spectrum.resolution
            failures += 0 if ok else 1
            rows.append([n, computed, bound, computed / bound, ok])
    code = 0 if failures == 0 else 1
    if failures:
        print(
            f"error: {failures} singular value(s) exceed the proven bound",
            file=sys.stderr,
        )
    if cfg.format == "csv":
        return code, _csv_document(header, rows)
    result = {
        "prefactor": law.prefactor,
        "decay_ratio": law.ratio,
        "table": [dict(zip(header, row)) for row in rows],
    }
    return code, _json_document("approx-numbers", cfg, result)


def cmd_verify_lemmas(cfg: RunConfig) -> tuple[int, str]:
    """Inequality grid sweeps; nonzero exit when any margin goes negative."""
    report = verification_suite(cfg.budget(), inject_fault=cfg.inject_fault)
    checks = []
    for check in report.checks:
        checks.append(
            {
                "name": check.name,
                "points": check.points,
                "failed": len(check.failures),
                "worst_margin": check.worst_margin,
                "passed": check.passed,
                "failures": [list(item) for item in check.failures[:10]],
            }
        )
    code = 0 if report.all_passed else 1
    if code:
        for check in report.checks:
            for label, margin in check.failures[:5]:
                print(
                    f"error: {check.name} fails at {label} (margin {margin!r})",
                    file=sys.stderr,
                )
    if cfg.format == "csv":
        header = ["name", "points", "failed", "worst_margin", "passed", "value"]
        rows = [
            [c["name"], c["points"], c["failed"], c["worst_margin"], c["passed"], None]
            for c in checks
        ]
        rows.append(["crossing-root", 1, 0, None, True, report.crossing])
        return code, _csv_document(header, rows)
    result = {
        "crossing": report.crossing,
        "all_passed": report.all_passed,
        "checks": checks,
    }
    return code, _json_document("verify-lemmas", cfg, result)


def cmd_figure(cfg: RunConfig) -> tuple[int, str]:
    """Comparison-curve samples: 1/x + f, 1/x + g, and zeta(1 + x)."""
    budget = cfg.budget()
    lo, hi = _FIGURE_RANGE
    rows: list[list] = []
    for x in linspace(lo, hi, cfg.points):
        rows.append(
            [
                x,
                1.0 / x + lower_bound_f(x),
                1.0 / x + lower_bound_g(x),
                zeta(1.0 + x, budget).value,
            ]
        )
    crossing = crossing_root(budget)
    header = ["x", "inv_x_plus_f", "inv_x_plus_g", "zeta_one_plus_x"]
    if cfg.format == "json":
        result = {"columns": header, "rows": rows, "crossing": crossing}
        return 0, _json_document("figure", cfg, result)
    rows.append(["crossing", crossing, None, None])
    return 0, _csv_document(header, rows)


_COMMANDS = {
    "bounds": cmd_bounds,
    "matrix-norm": cmd_matrix_norm,
    "approx-numbers": cmd_approx_numbers,
    "verify-lemmas": cmd_verify_lemmas,
    "figure": cmd_figure,
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    parser.add_argument("--c1-re", type=float, help="Re c1 (default 2)")
    parser.add_argument("--c1-im", type=float, help="Im c1 (default 0)")
    parser.add_argument("--c2-abs", type=float, help="|c2| (default 0.5)")
    parser.add_argument("--c2-arg", type=float, help="arg c2 in radians (default 0)")
    parser.add_argument("--q", type=int, help="integer base q >= 2 (default 2)")
    parser.add_argument(
        "--rows", type=int, help="highest row index I; the matrix has I+1 rows"
    )
    parser.add_argument("--cols", type=int, help="number of columns J")
    parser.add_argument(
        "--tol", type=float, help="absolute and relative tolerance (default 1e-12)"
    )
    parser.add_argument("--format", choices=("json", "csv"), help="document format")
    parser.add_argument("--output", metavar="PATH", help="write the document here")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichletops",
        description="Certified norm bounds for composition operators on the "
        "Hardy space of Dirichlet series.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="norm bracket for one symbol")
    _add_common_flags(p)

    p = sub.add_parser("matrix-norm", help="truncated-matrix norm estimate")
    _add_common_flags(p)
    p.add_argument(
        "--dump-matrix", metavar="PATH", help="also write the matrix entries"
    )

    p = sub.add_parser("approx-numbers", help="singular values vs decay bound")
    _add_common_flags(p)
    p.add_argument("--n-max", type=int, help="largest N in the table (default 10)")

    p = sub.add_parser("verify-lemmas", help="inequality grid verification")
    _add_common_flags(p)
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="flip one inequality to confirm failures are detected (self-test)",
    )

    p = sub.add_parser("figure", help="comparison-curve samples as CSV")
    _add_common_flags(p)
    p.add_argument("--points", type=int, help="sample count on [0.1, 10] (default 200)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # figure is a table by nature; its format defaults to csv
    overrides = {"format": "csv"} if args.command == "figure" else None
    try:
        cfg = _merge_config(args, overrides)
        code, text = _COMMANDS[args.command](cfg)
    except (InvalidSymbolError, NonCompactError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MatrixSizeError, BudgetExhaustedError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    _emit(text, cfg)
    return code


def entrypoint() -> None:
    raise SystemExit(main())
