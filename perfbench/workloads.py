"""The four benchmark workloads: seeded inputs, the timed job, and the checks.

A workload is a fixed round of job *slots*.  Every run attempts whole rounds,
so each slot contributes the same share of the attempted jobs whatever the
seed or the run length.  The seed draws the inputs inside each slot:

* ``theory`` covers wide ranges (|c2| up to 50, gaps down to 1e-12, q up to
  1e6, |Im c1| up to 100).  Each slot visits the points of a fixed 89-point
  Fibonacci lattice over (|c2|, gap) in a seeded order, and the seed draws
  Im c1, arg c2 and q; so every period of 89 rounds holds the same set of
  norm-relevant parameters on every seed, and the bracket widths and the
  work per period do not depend on the seed while the inputs do.
* ``matrix`` and ``spectrum`` fix (Re c1, |c2|) and the truncation of each
  slot and draw Im c1, arg c2 and q.  Those three move every complex matrix
  entry but, by the phase invariance of the operator, none of the norms, so
  the work per job and the certified bracket widths are the same on every
  seed while the inputs are not.  A run holds only ~40 of these jobs, too
  few to average a wide parameter range.
* ``cli`` draws symbols and sizes for a fixed rota of subcommands.

Jobs call the library through module attributes (``bounds.norm_bounds``),
never through names bound at import, so the tracer can wrap them.  Checks
compare outputs with independent computations (40-digit mpmath, LAPACK on a
separately built phase-free matrix) or with properties the method must have,
never with stored output.  They run after the timed loop.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import random
import subprocess
import sys

# the only check that fails on today's code, and on every constant symbol:
# norm_bounds reports the same rounded zeta value at both ends of the bracket
KNOWN_FAULT_CHECKS = frozenset({"constant_containment"})

_BUDGET_TOL = 1e-12  # abs_tol and rel_tol of the library's default budget
_TWO_PI = 2.0 * math.pi


def _rng(seed: int, slot: int, t: int) -> random.Random:
    """The draws of one slot in round t: the same on every run of this seed."""
    return random.Random(f"{seed}:{slot}:{t}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _phases(rng: random.Random) -> tuple[float, float, int]:
    """Im c1 in [-100, 100], arg c2 in [0, 2 pi), q log-uniform in [2, 1e6]."""
    im = rng.uniform(-100.0, 100.0)
    arg = rng.uniform(0.0, _TWO_PI)
    q = min(10**6, int(round(_log_uniform(rng, 2.0, 1e6))))
    return im, arg, q


def _c2(c: float, arg: float) -> complex:
    return c * cmath.exp(1j * arg)


def _quantity_ok(value: float, reference, rel: float) -> bool:
    return abs(value - reference) <= rel * abs(reference)


def _done(records: list[dict]):
    """(job index, record) for the jobs that returned; raised jobs are failed."""
    return ((n, rec) for n, rec in enumerate(records) if "error" not in rec)


class Checker:
    """Collects the failed checks of each job as (check name, detail)."""

    def __init__(self) -> None:
        self.failures: dict[int, list[tuple[str, str]]] = {}

    def expect(self, job: int, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failures.setdefault(job, []).append((name, detail))


# ---------------------------------------------------------------------------
# theory: closed-form bounds, no matrices


class Theory:
    name = "theory"
    # slot: (class, |c2| range, gap range); gap = Re c1 - 1/2 - |c2|
    SLOTS = (
        ("compact", (1e-3, 1.0), (1e-2, 10.0)),
        ("compact", (1.0, 50.0), (1e-2, 10.0)),
        ("compact", (1e-2, 50.0), (1e-1, 1.0)),
        ("compact", (0.1, 10.0), (1e-3, 1e-1)),
        ("boundary", (1e-2, 50.0), None),
        ("boundary", (1e-2, 1.0), None),
        ("near", (1e-2, 50.0), (1e-12, 1e-6)),
        ("near", (1e-2, 50.0), (1e-6, 1e-2)),
        ("constant", None, None),
    )
    # constant symbols do not depend on the seed: their check fails every time
    CONSTANTS = ((0.505, 0.0, 2), (0.6, 37.5, 3), (0.75, -100.0, 10), (1.0, 5.0, 2),
                 (1.5, 0.0, 1000), (2.25, -12.0, 7), (3.5, 99.0, 2), (5.0, 0.0, 10**6))

    PERIOD = 89  # a Fibonacci number: the lattice below has 89 points
    _LATTICE_STEP = 55  # the Fibonacci number before 89

    def __init__(self, seed: int):
        self.seed = seed
        # a seeded order, not a walk along k: consecutive k have neighbouring
        # |c2|, and the part of a period that a run adds beyond its whole
        # periods would then cover one end of the |c2| range and its cost
        self.orders = [_rng(seed, slot, -1).sample(range(self.PERIOD), self.PERIOD)
                       for slot in range(len(self.SLOTS))]

    def _lattice(self, slot: int, t: int) -> tuple[float, float]:
        """Point k of the 89-point Fibonacci lattice in the unit square, k in seeded order."""
        k = self.orders[slot][t % self.PERIOD]
        return (k + 0.5) / self.PERIOD, ((k * self._LATTICE_STEP) % self.PERIOD + 0.5) / self.PERIOD

    def round(self, t: int) -> list[dict]:
        jobs = []
        for slot, (kind, c_range, gap_range) in enumerate(self.SLOTS):
            if kind == "constant":
                re, im, q = self.CONSTANTS[t % len(self.CONSTANTS)]
                jobs.append({"slot": slot, "kind": kind, "c1": complex(re, im), "c2": 0j, "q": q})
                continue
            u_c, u_gap = self._lattice(slot, t)
            c = c_range[0] * (c_range[1] / c_range[0]) ** u_c
            gap = 0.0 if gap_range is None else gap_range[0] * (gap_range[1] / gap_range[0]) ** u_gap
            im, arg, q = _phases(_rng(self.seed, slot, t))
            jobs.append({"slot": slot, "kind": kind, "c1": complex(0.5 + c + gap, im),
                         "c2": _c2(c, arg), "q": q})
        return jobs

    @staticmethod
    def warmup() -> dict:
        return {"slot": -1, "kind": "compact", "c1": 2 + 0j, "c2": 0.5 + 0j, "q": 2}

    @staticmethod
    def run(job: dict, lib):
        sym = lib.symbol.DirichletSymbol(job["c1"], job["c2"], job["q"])
        report = lib.bounds.norm_bounds(sym)
        try:
            approx = lib.bounds.approx_number_bound(sym)
        except lib.errors.NonCompactError as exc:
            approx = exc
        fixed = lib.symbol.fixed_point(sym)
        try:
            spectrum = lib.symbol.spectrum_formula(sym)
        except lib.errors.NonCompactError as exc:
            spectrum = exc
        return sym, report, approx, fixed, spectrum

    @staticmethod
    def summarize(job: dict, out) -> dict:
        sym, report, approx, fixed, spectrum = out
        return {"sigma1": sym.sigma1, "c": sym.c2_abs, "c1": sym.c1, "c2": sym.c2, "q": sym.q,
                "cls": report.symbol_class.value, "r": report.schur_r,
                "lower_sq": report.lower_sq, "upper_sq": report.upper_sq,
                "kernel_sq": report.kernel_lower_sq,
                "approx": approx if isinstance(approx, Exception) else (approx.prefactor, approx.ratio),
                "alpha": fixed.alpha, "derivative": fixed.derivative,
                "spectrum": spectrum if isinstance(spectrum, Exception) else list(spectrum)}

    @staticmethod
    def brackets(records: list[dict]) -> list[float]:
        return [(r["upper_sq"] - r["lower_sq"]) / r["lower_sq"] for r in records
                if math.isfinite(r["upper_sq"]) and r["upper_sq"] > r["lower_sq"]]

    @staticmethod
    def check(records: list[dict], lib, chk: Checker) -> None:
        import mpmath

        mpmath.mp.dps = 40
        zeta_cache: dict = {}

        def zeta_mp(s):
            if s not in zeta_cache:
                zeta_cache[s] = mpmath.zeta(s)
            return zeta_cache[s]

        def within_budget(value, exact):
            return abs(mpmath.mpf(value) - exact) <= _BUDGET_TOL * max(1, abs(exact))

        for n, rec in _done(records):
            s1, c = mpmath.mpf(rec["sigma1"]), mpmath.mpf(rec["c"])
            lower_exact = zeta_mp(2 * s1)
            chk.expect(n, "lower_matches_zeta", within_budget(rec["lower_sq"], lower_exact),
                       f"{rec['lower_sq']!r} vs {mpmath.nstr(lower_exact, 20)}")
            chk.expect(n, "kernel_inside_bracket",
                       rec["lower_sq"] <= rec["kernel_sq"] <= rec["upper_sq"])
            if rec["cls"] == "constant":
                chk.expect(n, "constant_containment",
                           mpmath.mpf(rec["lower_sq"]) < lower_exact < mpmath.mpf(rec["upper_sq"]),
                           f"zeta(2 sigma1) = {mpmath.nstr(lower_exact, 20)} outside "
                           f"[{rec['lower_sq']!r}, {rec['upper_sq']!r}]")
            else:
                r = mpmath.mpf(rec["r"])
                chk.expect(n, "upper_matches_zeta",
                           within_budget(rec["upper_sq"], zeta_mp(2 * s1 - r * c)))
                # schur_radius treats |disc| <= 1e-12 (b^2 + 4c^2) as a double root
                p_r = c * r * r + (1 - 2 * s1) * r + c
                scale = c * r * r + (2 * s1 - 1) * r + c
                chk.expect(n, "schur_r_is_root", abs(p_r) <= 2e-12 * scale,
                           f"P(r)/scale = {mpmath.nstr(p_r / scale, 5)}")
            # fixed point residual, evaluated in 40 digits at the returned alpha
            alpha = mpmath.mpc(rec["alpha"])
            phi = mpmath.mpc(rec["c1"]) + mpmath.mpc(rec["c2"]) * mpmath.power(rec["q"], -alpha)
            chk.expect(n, "fixed_point_residual", abs(phi - alpha) <= 1e-12 and alpha.real > 0.5,
                       f"residual {mpmath.nstr(abs(phi - alpha), 5)}")
            derivative = -mpmath.mpc(rec["c2"]) * mpmath.log(rec["q"]) * mpmath.power(rec["q"], -alpha)
            chk.expect(n, "derivative_matches",
                       abs(mpmath.mpc(rec["derivative"]) - derivative) <= 1e-10 * max(1, abs(derivative)))
            if rec["cls"] == "boundary":
                chk.expect(n, "boundary_spectrum_rejected",
                           isinstance(rec["spectrum"], lib.errors.NonCompactError))
                # approx_number_bound either rejects a boundary symbol or, when
                # 2 sigma1 - 2|c2| - 1 rounds above 0, returns ratio <= 1
                chk.expect(n, "boundary_approx_ratio",
                           isinstance(rec["approx"], lib.errors.NonCompactError)
                           or rec["approx"][1] <= 1.0)
            else:
                spectrum = rec["spectrum"]
                ok = (isinstance(spectrum, list) and spectrum[0] == 1 and spectrum[-1] == 0
                      and all(abs(a) >= abs(b) for a, b in zip(spectrum, spectrum[1:])))
                chk.expect(n, "spectrum_formula_shape", ok)
                ratio = rec["approx"][1]
                chk.expect(n, "approx_ratio", 0.0 <= ratio < 1.0,
                           f"ratio {ratio!r}")


# ---------------------------------------------------------------------------
# shared by matrix and spectrum: an independent phase-free reference block


def reference_block(sigma1: float, c: float, rows: int, cols: int):
    """B[i][j] = j^-sigma1 (c log j)^i / i!, by the row recurrence, in float64.

    The operator matrix is D_row B D_col with unitary diagonal factors, so B
    has the same singular values as every phased block of the same
    (Re c1, |c2|).  Entries below 1e-290 are set to zero: that moves no
    singular value by more than 1e-280 and keeps LAPACK off subnormals.
    """
    import numpy as np

    j = np.arange(1, cols + 1, dtype=np.float64)
    lj = np.log(j)
    block = np.empty((rows, cols))
    block[0] = j ** (-sigma1)
    for i in range(1, rows):
        block[i] = block[i - 1] * (c * lj) / i
    block[np.abs(block) < 1e-290] = 0.0
    return block


def entry_mp(c1: complex, c2: complex, i: int, j: int):
    """a[i][j] = j^-c1 (-c2 log j)^i / i! in 40-digit arithmetic."""
    import mpmath

    lj = mpmath.log(j)
    return mpmath.power(j, -mpmath.mpc(c1)) * (-mpmath.mpc(c2) * lj) ** i / mpmath.factorial(i)


def _schur_upper_mp(sigma1: float, c: float):
    """zeta(2 sigma1 - r |c2|) with r the smaller root of P, in 40 digits."""
    import mpmath

    s1, c = mpmath.mpf(sigma1), mpmath.mpf(c)
    b = 2 * s1 - 1
    disc = max(b * b - 4 * c * c, 0)
    r = 2 * c / (b + mpmath.sqrt(disc))
    return mpmath.zeta(2 * s1 - r * c)


class _PhasedSlots:
    """Slots with fixed (Re c1, |c2|) and truncation; the seed draws phases."""

    SLOTS: tuple = ()
    PERIOD = 1  # every round repeats the norm-relevant parameters

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, t: int) -> list[dict]:
        jobs = []
        for slot, cfg in enumerate(self.SLOTS):
            im, arg, q = _phases(_rng(self.seed, slot, t))
            job = dict(cfg, slot=slot, c1=complex(cfg["sigma1"], im), c2=_c2(cfg["c"], arg), q=q)
            jobs.append(job)
        return jobs

    @staticmethod
    def _sample_positions(job: dict, count: int = 6) -> list[tuple[int, int]]:
        rng = random.Random(f"{job['c1']!r}{job['c2']!r}")
        return [(rng.randrange(job["rows"]), rng.randrange(1, job["cols"] + 1)) for _ in range(count)]

    def references(self, records: list[dict]) -> dict:
        """LAPACK singular values of each slot's phase-free block."""
        import numpy as np

        refs = {}
        for _, rec in _done(records):
            slot = rec["slot"]
            if slot not in refs:
                cfg = self.SLOTS[slot]
                block = reference_block(cfg["sigma1"], cfg["c"], cfg["rows"], cfg["cols"])
                refs[slot] = np.linalg.svd(block, compute_uv=False)
        return refs


# ---------------------------------------------------------------------------
# matrix: wide truncations, power-iteration norm brackets


class Matrix(_PhasedSlots):
    name = "matrix"
    COLS = 20000
    # odd slot count, so the median job sits inside one slot's cluster of
    # times; the two slowest slots cost about the same, so the tail (the 11th
    # slowest job) stays inside their cluster for any run of 6 or more rounds
    SLOTS = (
        {"cls": "compact", "sigma1": 2.0, "c": 0.5, "rows": 101, "cols": COLS},
        {"cls": "compact", "sigma1": 2.5, "c": 0.5, "rows": 126, "cols": COLS},
        {"cls": "boundary", "sigma1": 1.0, "c": 0.5, "rows": 101, "cols": COLS},
        {"cls": "compact", "sigma1": 3.0, "c": 1.5, "rows": 151, "cols": COLS},
        {"cls": "compact", "sigma1": 1.6, "c": 0.3, "rows": 201, "cols": COLS},
        {"cls": "boundary", "sigma1": 3.0, "c": 2.5, "rows": 201, "cols": COLS},
        {"cls": "boundary", "sigma1": 4.0, "c": 3.5, "rows": 201, "cols": COLS},
    )

    @staticmethod
    def warmup() -> dict:
        return {"slot": -1, "cls": "compact", "c1": 2 + 0j, "c2": 0.5 + 0j, "q": 2, "rows": 41, "cols": 2000}

    @staticmethod
    def run(job: dict, lib):
        sym = lib.symbol.DirichletSymbol(job["c1"], job["c2"], job["q"])
        m = lib.operator_matrix.build_matrix(sym, job["rows"] - 1, job["cols"])
        return m, lib.operator_matrix.operator_norm_estimate(m)

    def summarize(self, job: dict, out) -> dict:
        m, est = out
        samples = [(i, j, complex(m.entries[i, j - 1])) for i, j in self._sample_positions(job)]
        return {"slot": job["slot"], "cls": job["cls"], "sigma1": m.symbol.sigma1, "c": m.symbol.c2_abs,
                "c1": job["c1"], "c2": job["c2"], "lower": est.lower, "upper": est.upper,
                "tail": m.tail_bound, "converged": est.converged, "samples": samples}

    @staticmethod
    def brackets(records: list[dict]) -> list[float]:
        return [(r["upper"] - r["lower"]) / r["lower"] for r in records
                if math.isfinite(r["upper"]) and r["upper"] > r["lower"]]

    def check(self, records: list[dict], lib, chk: Checker) -> None:
        import mpmath

        mpmath.mp.dps = 40
        refs = self.references(records)
        uppers: dict = {}
        first_lower: dict = {}
        for n, rec in _done(records):
            slot = rec["slot"]
            for i, j, value in rec["samples"]:
                exact = entry_mp(rec["c1"], rec["c2"], i, j)
                chk.expect(n, "entry_matches_mpmath",
                           abs(mpmath.mpc(value) - exact) <= 1e-10 * abs(exact) + 1e-300,
                           f"a[{i}][{j}] = {value!r} vs {mpmath.nstr(exact, 17)}")
            smax = float(refs[slot][0])
            chk.expect(n, "lower_matches_lapack", _quantity_ok(rec["lower"], smax, 1e-9),
                       f"{rec['lower']!r} vs {smax!r}")
            chk.expect(n, "converged", rec["converged"])
            if slot not in uppers:
                uppers[slot] = _schur_upper_mp(rec["sigma1"], rec["c"])
            chk.expect(n, "lower_below_schur_bound", mpmath.mpf(rec["lower"]) ** 2 <= uppers[slot])
            if rec["cls"] == "compact":
                chk.expect(n, "upper_above_zeta",
                           mpmath.mpf(rec["upper"]) ** 2 >= mpmath.zeta(2 * mpmath.mpf(rec["sigma1"])))
            else:
                chk.expect(n, "boundary_tail_infinite", math.isinf(rec["tail"]))
            # same (Re c1, |c2|, truncation), other Im c1, arg c2, q: same norm
            base = first_lower.setdefault(slot, rec["lower"])
            chk.expect(n, "phase_invariant_norm", _quantity_ok(rec["lower"], base, 1e-9),
                       f"{rec['lower']!r} vs {base!r}")


# ---------------------------------------------------------------------------
# spectrum: singular values against the decay law, then the Schur check


class Spectrum(_PhasedSlots):
    name = "spectrum"
    SLOTS = (
        {"sigma1": 2.0, "c": 0.5, "rows": 41, "cols": 2000, "count": 11, "schur_rows": 41, "schur_cols": 10**5},
        {"sigma1": 1.6, "c": 0.3, "rows": 61, "cols": 4000, "count": 11, "schur_rows": 41, "schur_cols": 2 * 10**5},
        {"sigma1": 2.5, "c": 0.5, "rows": 41, "cols": 3000, "count": 11, "schur_rows": 41, "schur_cols": 10**5},
        {"sigma1": 3.0, "c": 1.0, "rows": 61, "cols": 3000, "count": 15, "schur_rows": 61, "schur_cols": 10**5},
        {"sigma1": 4.0, "c": 1.0, "rows": 41, "cols": 2000, "count": 21, "schur_rows": 41, "schur_cols": 10**5},
        {"sigma1": 2.5, "c": 0.8, "rows": 41, "cols": 4000, "count": 21, "schur_rows": 41, "schur_cols": 5 * 10**5},
        {"sigma1": 2.0, "c": 0.5, "rows": 151, "cols": 2000, "count": 21, "schur_rows": 41, "schur_cols": 10**5},
    )

    @staticmethod
    def warmup() -> dict:
        return {"slot": -1, "c1": 2 + 0j, "c2": 0.5 + 0j, "q": 2, "rows": 41, "cols": 2000,
                "count": 11, "schur_rows": 41, "schur_cols": 10**5}

    @staticmethod
    def run(job: dict, lib):
        sym = lib.symbol.DirichletSymbol(job["c1"], job["c2"], job["q"])
        m = lib.operator_matrix.build_matrix(sym, job["rows"] - 1, job["cols"])
        spectrum = lib.operator_matrix.singular_values(m, job["count"])
        law = lib.bounds.approx_number_bound(sym)
        r = lib.bounds.schur_radius(sym.sigma1, sym.c2_abs)
        cert = lib.operator_matrix.schur_certificate(sym, r, job["schur_rows"] - 1, job["schur_cols"])
        return sym, spectrum, law, cert

    @staticmethod
    def summarize(job: dict, out) -> dict:
        sym, spectrum, law, cert = out
        return {"slot": job["slot"], "sigma1": sym.sigma1, "c": sym.c2_abs,
                "values": [float(v) for v in spectrum.values],
                "prefactor": law.prefactor, "ratio": law.ratio, "r": cert.r,
                "verdict": cert.verdict, "implied": cert.implied_norm_bound}

    @staticmethod
    def brackets(records: list[dict]) -> list[float]:
        # sigma_1 of the truncation is a certified lower bound on the norm and
        # the Schur verdict certifies the upper one
        return [(r["implied"] - r["values"][0]) / r["values"][0] for r in records
                if r["implied"] is not None and r["implied"] > r["values"][0]]

    def check(self, records: list[dict], lib, chk: Checker) -> None:
        import mpmath

        mpmath.mp.dps = 40
        refs = self.references(records)
        uppers: dict = {}
        first: dict = {}
        for n, rec in _done(records):
            slot, values = rec["slot"], rec["values"]
            chk.expect(n, "descending", all(a >= b for a, b in zip(values, values[1:])))
            smax = float(refs[slot][0])
            chk.expect(n, "sigma1_matches_lapack", _quantity_ok(values[0], smax, 1e-10),
                       f"{values[0]!r} vs {smax!r}")
            s1, c = mpmath.mpf(rec["sigma1"]), mpmath.mpf(rec["c"])
            b = 2 * s1 - 1
            prefactor = mpmath.sqrt(b * 2 * s1 / (b * b - 4 * c * c))
            ratio = 2 * c / b
            chk.expect(n, "decay_law_matches", _quantity_ok(rec["prefactor"], prefactor, 1e-12)
                       and _quantity_ok(rec["ratio"], ratio, 1e-12))
            # strict: no absolute slack
            for k in range(1, len(values)):
                bound = rec["prefactor"] * rec["ratio"] ** k
                chk.expect(n, "below_decay_law", values[k] <= bound,
                           f"sigma_{k + 1} = {values[k]!r} > {bound!r}")
            if slot not in uppers:
                uppers[slot] = _schur_upper_mp(rec["sigma1"], rec["c"])
            chk.expect(n, "schur_verdict", rec["verdict"] is True)
            chk.expect(n, "implied_bound_covers_schur",
                       rec["implied"] is not None and mpmath.mpf(rec["implied"]) ** 2 >= uppers[slot])
            chk.expect(n, "sigma1_below_schur_bound", mpmath.mpf(values[0]) ** 2 <= uppers[slot])
            base = first.setdefault(slot, values[0])
            chk.expect(n, "phase_invariant_sigma1", _quantity_ok(values[0], base, 1e-10))


# ---------------------------------------------------------------------------
# cli: cold `python -m dirichletops` subprocesses


def _fnum(x: float) -> str:
    return repr(float(x))


class Cli:
    name = "cli"
    # nine slots, the last repeating one of the others verbatim; the three
    # bracket slots fix (Re c1, |c2|) and truncation, so their median is the
    # same on every seed, and the other slots draw symbols and sizes.  The
    # wide fixed matrix-norm slot costs about what verify-lemmas does, so the
    # tail (the 11th slowest job) falls inside those two slots' cluster and
    # not on the seed-dependent upper edge of the drawn slots
    SLOTS = ("bounds", "matrix-norm", "approx-numbers", "verify-lemmas", "figure",
             "bounds-boundary", "matrix-norm-drawn", "bounds-drawn", "repeat")
    BRACKET_SLOTS = (0, 1, 5)
    PERIOD = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.python = sys.executable
        self.env: dict | None = None  # set by the worker
        self.in_process = None  # cli.main when traced

    @staticmethod
    def _symbol_args(rng: random.Random, c, gap) -> list[str]:
        """Fixed or drawn (|c2|, gap); Im c1, arg c2 and q always drawn."""
        if isinstance(c, tuple):
            c = _log_uniform(rng, *c)
        if isinstance(gap, tuple):
            gap = _log_uniform(rng, *gap)
        im, arg, q = _phases(rng)
        return ["--c1-re", _fnum(0.5 + c + gap), "--c1-im", _fnum(im), "--c2-abs", _fnum(c),
                "--c2-arg", _fnum(arg), "--q", str(q)]

    def round(self, t: int) -> list[dict]:
        r = [_rng(self.seed, slot, t) for slot in range(len(self.SLOTS))]
        argvs = [
            ["bounds", *self._symbol_args(r[0], 0.4, 0.6)],
            ["matrix-norm", *self._symbol_args(r[1], 0.5, 1.0), "--rows", "100", "--cols", "20000",
             "--format", "csv"],
            ["approx-numbers", *self._symbol_args(r[2], (0.05, 1.0), (0.3, 2.0)),
             "--rows", str(r[2].randrange(20, 40)),
             "--cols", str(int(_log_uniform(r[2], 500, 2000))),
             "--n-max", str(r[2].randrange(4, 11)), "--format", "csv"],
            ["verify-lemmas"],
            ["figure", "--points", str(int(_log_uniform(r[4], 50, 400)))],
            ["bounds", *self._symbol_args(r[5], 0.75, 0.0), "--format", "csv"],
            ["matrix-norm", *self._symbol_args(r[6], (0.05, 2.0), (0.2, 2.0)),
             "--rows", str(r[6].randrange(20, 60)),
             "--cols", str(int(_log_uniform(r[6], 1000, 5000)))],
            ["bounds", *self._symbol_args(r[7], (0.05, 20.0), (0.05, 5.0))],
        ]
        argvs.append(list(argvs[t % len(argvs)]))  # byte-identical repeat
        return [{"slot": slot, "argv": argv} for slot, argv in enumerate(argvs)]

    @staticmethod
    def warmup() -> dict:
        return {"slot": -1, "argv": ["bounds"]}

    def run(self, job: dict, lib):
        if self.in_process is not None:
            import contextlib

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = self.in_process(list(job["argv"]))
            return code, buffer.getvalue().encode()
        proc = subprocess.run([self.python, "-m", "dirichletops", *job["argv"]],
                              env=self.env, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    @staticmethod
    def summarize(job: dict, out) -> dict:
        code, stdout = out
        return {"slot": job["slot"], "argv": job["argv"], "code": code, "stdout": stdout}

    def brackets(self, records: list[dict]) -> list[float]:
        widths = []
        for rec in records:
            if rec["slot"] not in self.BRACKET_SLOTS or rec["code"] != 0:
                continue
            if rec["argv"][0] == "bounds":
                row = _parse_bounds(rec)
            else:
                row = next(csv.DictReader(io.StringIO(rec["stdout"].decode())))
                row = {"lower_sq": float(row["lower_sq"]), "upper_sq": float(row["upper_sq"])}
            if row["upper_sq"] is not None and row["upper_sq"] > row["lower_sq"]:
                widths.append((row["upper_sq"] - row["lower_sq"]) / row["lower_sq"])
        return widths

    def check(self, records: list[dict], lib, chk: Checker) -> None:
        import mpmath

        mpmath.mp.dps = 40
        root = mpmath.findroot(
            lambda x: x / (x + 1) / mpmath.sqrt(2 * mpmath.pi)
            - (414 + 49 * x - 6 * x**2 - x**3) / 720, 6.2)
        zeta_cache: dict = {}

        def zeta_mp(s: float):
            if s not in zeta_cache:
                zeta_cache[s] = mpmath.zeta(mpmath.mpf(s))
            return zeta_cache[s]

        def flag(argv, name, default):
            return float(argv[argv.index(name) + 1]) if name in argv else default

        rounds: dict = {}
        for n, rec in enumerate(records):
            rounds.setdefault(n // len(self.SLOTS), []).append(rec)
            if "error" in rec:
                continue
            argv = rec["argv"]
            chk.expect(n, "exit_code_0", rec["code"] == 0, f"{argv} exited {rec['code']}")
            if rec["code"] != 0:
                continue
            text = rec["stdout"].decode()
            command = argv[0]
            try:
                if command == "bounds":
                    row = _parse_bounds(rec)
                    s1, c = flag(argv, "--c1-re", 2.0), flag(argv, "--c2-abs", 0.5)
                    exact_lower = zeta_mp(2 * s1)
                    chk.expect(n, "bounds_lower_matches_zeta",
                               _quantity_ok(row["lower_sq"], exact_lower, 1e-11))
                    # the printed r: near the double root schur_radius returns
                    # 2c/b, a valid point of the root interval, on purpose
                    r = mpmath.mpf(row["schur_r"])
                    p_r = c * r * r + (1 - 2 * s1) * r + c
                    chk.expect(n, "bounds_schur_r_is_root", abs(p_r) <= 1e-11 * (c * r * r + (2 * s1 - 1) * r + c))
                    chk.expect(n, "bounds_upper_matches_zeta",
                               _quantity_ok(row["upper_sq"], mpmath.zeta(2 * mpmath.mpf(s1) - r * c), 1e-11))
                elif command == "matrix-norm":
                    if "--format" in argv:
                        row = next(csv.DictReader(io.StringIO(text)))
                        within = row["within_theorem_bracket"] == "true"
                    else:
                        row = json.loads(text)["result"]
                        within = row["within_theorem_bracket"] is True
                    s1, c = flag(argv, "--c1-re", 2.0), flag(argv, "--c2-abs", 0.5)
                    chk.expect(n, "within_theorem_bracket", within)
                    chk.expect(n, "matrix_lower_below_schur_bound",
                               mpmath.mpf(row["lower_sq"]) <= _schur_upper_mp(s1, c) * (1 + 1e-11))
                elif command == "approx-numbers":
                    rows = list(csv.DictReader(io.StringIO(text)))
                    chk.expect(n, "approx_rows_present", len(rows) >= 1)
                    chk.expect(n, "every_ok", all(r["ok"] == "true" for r in rows))
                elif command == "verify-lemmas":
                    doc = json.loads(text)["result"]
                    chk.expect(n, "all_passed", doc["all_passed"] is True
                               and all(check["passed"] for check in doc["checks"]))
                    chk.expect(n, "crossing_matches_mpmath", abs(doc["crossing"] - root) <= 1e-11,
                               f"{doc['crossing']!r} vs {mpmath.nstr(root, 15)}")
                elif command == "figure":
                    rows = list(csv.reader(io.StringIO(text)))
                    body = [r for r in rows[1:] if r[0] != "crossing"]
                    crossing = [r for r in rows[1:] if r[0] == "crossing"]
                    chk.expect(n, "figure_points", len(body) == int(flag(argv, "--points", 200)))
                    for x, inv_f, _inv_g, z in body:
                        exact = zeta_mp(1.0 + float(x))
                        chk.expect(n, "figure_f_below_zeta", mpmath.mpf(inv_f) <= exact, f"x={x}")
                        chk.expect(n, "figure_zeta_matches", _quantity_ok(float(z), exact, 1e-11), f"x={x}")
                    chk.expect(n, "figure_crossing_matches_mpmath",
                               len(crossing) == 1 and abs(float(crossing[0][1]) - root) <= 1e-11)
            except (ValueError, KeyError, StopIteration, TypeError) as exc:
                chk.expect(n, "document_parses", False, f"{argv}: {exc!r}")
        # the last slot of each round repeats an earlier invocation verbatim
        for t, recs in rounds.items():
            if len(recs) == len(self.SLOTS) and not any("error" in rec for rec in recs):
                repeat, original = recs[-1], recs[t % (len(self.SLOTS) - 1)]
                chk.expect(t * len(self.SLOTS) + len(self.SLOTS) - 1, "byte_identical_repeat",
                           repeat["argv"] == original["argv"] and repeat["stdout"] == original["stdout"])


def _parse_bounds(rec: dict) -> dict:
    """The result of a `bounds` document, JSON or CSV; empty and word cells become None."""
    text = rec["stdout"].decode()
    if "--format" in rec["argv"]:
        row = next(csv.DictReader(io.StringIO(text)))
        return {key: (float(value) if value not in ("", "compact", "boundary", "constant") else None)
                for key, value in row.items()}
    return json.loads(text)["result"]


WORKLOADS = {w.name: w for w in (Theory, Matrix, Spectrum, Cli)}
