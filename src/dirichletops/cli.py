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
import math
import sys
from collections import namedtuple
from pathlib import Path

from . import __version__
from .bounds import _zeta_bracket, approx_number_bound, norm_bounds
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

_SUBCOMMANDS = {
    "bounds": "norm bracket for one symbol",
    "matrix-norm": "truncated-matrix norm estimate",
    "approx-numbers": "singular values vs decay bound",
    "verify-lemmas": "inequality grid verification",
    "figure": "comparison-curve samples as CSV",
}


def _option(name, default, help=None, *, flag=None, commands=tuple(_SUBCOMMANDS), file=True, **extra):
    """A RunConfig field with the one declaration of its inputs.

    ``help`` is the help of its flag ``--<flag>`` (``name`` unless ``flag``
    is given), which ``commands`` take with the ``extra`` argparse
    settings; without ``help`` the field adds no flag of its own.  ``file``
    says whether a config file may set it, under its name or its flag.
    Flag and file values parse with the default's type (str for None), and
    a bool field is a switch.
    """
    kind = str if default is None else type(default)
    return dict(name=name, default=default, help=help, flag=flag or name, commands=commands,
                file=file, type=kind, extra=extra)


# RunConfig's fields, in order; a bare `tol` (flag or file key) sets both
# tolerance fields
_OPTIONS = (
    _option("c1_re", 2.0, "Re c1 (default 2)"),
    _option("c1_im", 0.0, "Im c1 (default 0)"),
    _option("c2_abs", 0.5, "|c2| (default 0.5)"),
    _option("c2_arg", 0.0, "arg c2 in radians (default 0)"),
    _option("q", 2, "integer base q >= 2 (default 2); the norm does not depend on q, "
            "so it moves no number printed"),
    _option("rows", 40, "highest row index I; the matrix has I+1 rows"),
    _option("cols", 2000, "number of columns J"),
    _option("abs_tol", 1e-12, "absolute and relative tolerance (default 1e-12)", flag="tol"),
    _option("rel_tol", 1e-12, flag="tol"),
    _option("max_terms", 10**6),
    _option("format", "json", "document format", choices=("json", "csv")),
    _option("output", None, "write the document here", metavar="PATH"),
    _option("n_max", 10, "largest N in the table (default 10)", commands=("approx-numbers",)),
    _option("points", 200, "sample count on [0.1, 10] (default 200)", commands=("figure",)),
    _option("inject_fault", False, "flip one inequality to confirm failures are detected (self-test)",
            commands=("verify-lemmas",), file=False),
    _option("dump_matrix", None, "also write the matrix entries", commands=("matrix-norm",),
            file=False, metavar="PATH"),
)


class RunConfig(
    namedtuple("RunConfig", [o["name"] for o in _OPTIONS], defaults=[o["default"] for o in _OPTIONS])
):
    """One resolved invocation: symbol, truncation, precision, output."""

    __slots__ = ()

    def symbol(self) -> DirichletSymbol:
        c1 = complex(self.c1_re, self.c1_im)
        c2 = self.c2_abs * cmath.exp(1j * self.c2_arg)
        return DirichletSymbol(c1, c2, self.q)

    def budget(self) -> PrecisionBudget:
        return PrecisionBudget(
            abs_tol=self.abs_tol, rel_tol=self.rel_tol, max_terms=self.max_terms
        )


# config-file keys and their parsers: each settable field's name and flag
_FILE_KEYS = {
    key: o["type"] for o in _OPTIONS if o["file"] for key in (o["name"], o["flag"])
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
        if key not in _FILE_KEYS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _FILE_KEYS[key](value.strip())
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Each field from its flag, else the file under the field's name, else
    the file under the flag's, else figure's csv default, else the built-in."""
    file_values = _read_config_file(args.config) if args.config else {}
    if args.command == "figure":  # a table by nature
        file_values.setdefault("format", "csv")
    resolved = {}
    for o in _OPTIONS:
        name, flag = o["name"], o["flag"]
        values = (getattr(args, flag, None), file_values.get(name), file_values.get(flag))
        resolved[name] = next((v for v in values if v is not None), o["default"])
    cfg = RunConfig(**resolved)
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
    return cfg


def _fmt(cell) -> str:
    """One CSV cell: 12 significant digits, lowercase booleans, '' for None."""
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):  # nan, inf and -inf print as themselves
        return f"{cell:.12g}"
    return str(cell)


def _csv_document(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _round_floats(obj):
    """Round every float to 12 significant digits; drop non-finite to null."""
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
    import json  # only JSON documents need it

    doc = {
        "command": command,
        "version": __version__,
        "config": cfg._asdict(),
        "result": result,
    }
    return json.dumps(_round_floats(doc), indent=2) + "\n"


def cmd_bounds(cfg: RunConfig) -> tuple[int, dict, None]:
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
    return 0, result, None


def cmd_matrix_norm(cfg: RunConfig) -> tuple[int, dict, None]:
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
    _, _, theory_lower, theory_upper = _zeta_bracket(sym, budget)

    def zeta_error(value: float) -> float:
        return max(budget.abs_tol, budget.rel_tol * value)

    certified = math.isfinite(estimate.upper)
    within = estimate.lower**2 <= theory_upper + zeta_error(theory_upper)
    within = within and estimate.upper**2 >= theory_lower - zeta_error(theory_lower)
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
        "theory_lower_sq": theory_lower,
        "theory_upper_sq": theory_upper,
        "within_theorem_bracket": within,
    }
    code = 0 if within else 1
    if not within:
        print(
            "error: matrix norm estimate escapes the proven bracket "
            f"(lower_sq={estimate.lower**2!r}, bracket=[{theory_lower!r}, "
            f"{theory_upper!r}]); this signals a bug",
            file=sys.stderr,
        )
    return code, result, None


def cmd_approx_numbers(cfg: RunConfig) -> tuple[int, dict, tuple]:
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
    result = {
        "prefactor": law.prefactor,
        "decay_ratio": law.ratio,
        "table": [dict(zip(header, row)) for row in rows],
    }
    return code, result, (header, rows)


def cmd_verify_lemmas(cfg: RunConfig) -> tuple[int, dict, tuple]:
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
    header = ["name", "points", "failed", "worst_margin", "passed", "value"]
    rows = [
        [c["name"], c["points"], c["failed"], c["worst_margin"], c["passed"], None]
        for c in checks
    ]
    rows.append(["crossing-root", 1, 0, None, True, report.crossing])
    result = {
        "crossing": report.crossing,
        "all_passed": report.all_passed,
        "checks": checks,
    }
    return code, result, (header, rows)


def cmd_figure(cfg: RunConfig) -> tuple[int, dict, tuple]:
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
    result = {"columns": header, "rows": rows, "crossing": crossing}
    return 0, result, (header, [*rows, ["crossing", crossing, None, None]])


# each command returns (exit code, JSON result, CSV table or None for a
# one-row table of the result) and main renders the document
_COMMANDS = {
    "bounds": cmd_bounds,
    "matrix-norm": cmd_matrix_norm,
    "approx-numbers": cmd_approx_numbers,
    "verify-lemmas": cmd_verify_lemmas,
    "figure": cmd_figure,
}


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
    for command, help in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help)
        p.add_argument("--config", metavar="FILE", help="key=value config file")
        for o in _OPTIONS:
            if o["help"] and command in o["commands"]:
                parse = o["type"]
                kind = {"action": "store_true"} if parse is bool else {"type": parse}
                p.add_argument(
                    "--" + o["flag"].replace("_", "-"), help=o["help"], **kind, **o["extra"]
                )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        code, result, table = _COMMANDS[args.command](cfg)
    except (InvalidSymbolError, NonCompactError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MatrixSizeError, BudgetExhaustedError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    if cfg.format == "json":
        text = _json_document(args.command, cfg, result)
    else:
        header, rows = table or (list(result), [list(result.values())])
        text = _csv_document(header, rows)
    if cfg.output:
        with open(cfg.output, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


def entrypoint() -> None:
    raise SystemExit(main())
