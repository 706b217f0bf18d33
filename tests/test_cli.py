"""End-to-end checks of the command-line front end.

Commands run in-process through main() with captured streams; one test goes
through `python -m` to cover the installed entry path.
"""

from __future__ import annotations

import json
import math
import warnings
import subprocess
import sys
import time

import pytest

from dirichletops import cli, operator_matrix
from dirichletops.bounds import approx_number_bound, norm_bounds, schur_radius
from dirichletops.cli import main
from dirichletops.operator_matrix import MAX_ENTRIES_ENV, read_matrix
from dirichletops.special_functions import zeta
from dirichletops.symbol import DirichletSymbol

ZETA_15 = zeta(1.5).value
ZETA_2 = zeta(2.0).value
ZETA_4 = zeta(4.0).value


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


class TestBounds:
    def test_boundary_report(self, capsys):
        code, doc, _ = run_json(capsys, ["bounds", "--c1-re", "1", "--c2-abs", "0.5"])
        assert code == 0
        assert doc["command"] == "bounds"
        assert doc["version"]
        assert doc["config"]["c1_re"] == 1.0
        result = doc["result"]
        assert result["symbol_class"] == "boundary"
        assert result["schur_r"] == 1.0
        assert result["lower_sq"] == pytest.approx(ZETA_2, rel=1e-11)
        assert result["upper_sq"] == pytest.approx(ZETA_15, rel=1e-11)
        assert result["approx_prefactor"] is None

    def test_constant_report(self, capsys):
        code, doc, _ = run_json(capsys, ["bounds", "--c1-re", "2", "--c2-abs", "0"])
        assert code == 0
        result = doc["result"]
        assert result["symbol_class"] == "constant"
        assert result["lower_sq"] == result["upper_sq"]
        assert result["lower_sq"] == pytest.approx(ZETA_4, rel=1e-11)

    def test_compact_includes_decay_law(self, capsys):
        code, doc, _ = run_json(capsys, ["bounds", "--c1-re", "2", "--c2-abs", "0.5"])
        assert code == 0
        result = doc["result"]
        assert result["symbol_class"] == "compact"
        assert result["approx_prefactor"] == pytest.approx(math.sqrt(1.5), rel=1e-11)
        assert result["approx_ratio"] == pytest.approx(1.0 / 3.0, rel=1e-11)

    def test_symbols_near_the_boundary_line(self, capsys):
        # a boundary symbol within EQ_TOL below the line, and a compact one
        # 1.5e-12 above it whose radius a float root put 1e-6 too high
        code, doc, _ = run_json(capsys, ["bounds", "--c1-re", "0.9999999999995", "--c2-abs", "0.5"])
        assert code == 0
        assert doc["result"]["symbol_class"] == "boundary"
        assert doc["result"]["schur_r"] == 1.0
        code, doc, _ = run_json(capsys, ["bounds", "--c1-re", "3.5000000000015", "--c2-abs", "3"])
        assert code == 0
        assert doc["result"]["schur_r"] == 0.999999000104
        assert doc["result"]["upper_sq"] == 1.082323027

    @pytest.mark.parametrize(
        "c1_re, c2_abs, symbol_class",
        [("1e308", "1", "compact"), ("1e200", "1", "compact"), ("1e308", "1e308", "boundary")],
    )
    def test_huge_sigma1_brackets_one(self, capsys, c1_re, c2_abs, symbol_class):
        # 2 Re c1 overflows to inf, or the zeta series' coefficients would
        code, doc, _ = run_json(capsys, ["bounds", "--c1-re", c1_re, "--c2-abs", c2_abs])
        assert code == 0
        result = doc["result"]
        assert result["symbol_class"] == symbol_class
        assert result["lower_sq"] == result["upper_sq"] == result["kernel_lower_sq"] == 1.0

    @pytest.mark.parametrize("c2_arg", ["0", "0.5"])
    def test_largest_float_symbol_answers(self, capsys, c2_arg):
        # |c2| = DBL_MAX: raised by an ulp it has no float above it, so the
        # boundary-line integers raise it to 2^1024 instead
        big = "1.7976931348623157e308"
        argv = ["bounds", "--c1-re", big, "--c2-abs", big, "--c2-arg", c2_arg]
        code, doc, _ = run_json(capsys, argv)
        assert code == 0
        result = doc["result"]
        assert result["symbol_class"] == "boundary"
        assert result["schur_r"] == 1.0
        assert result["lower_sq"] == result["upper_sq"] == 1.0

    def test_invalid_symbol_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["bounds", "--c1-re", "0.6", "--c2-abs", "0.5"])
        assert code == 2
        assert out == ""
        assert "1/2 + |c2|" in err


class TestMatrixNorm:
    def test_bracket_and_dump(self, capsys, tmp_path):
        dump = tmp_path / "matrix.txt"
        code, doc, _ = run_json(
            capsys,
            [
                "matrix-norm",
                "--c1-re",
                "2",
                "--c2-abs",
                "0.5",
                "--rows",
                "20",
                "--cols",
                "500",
                "--dump-matrix",
                str(dump),
            ],
        )
        assert code == 0
        result = doc["result"]
        assert result["within_theorem_bracket"] is True
        assert result["upper_status"] == "certified"
        assert result["theory_lower_sq"] - 1e-9 <= result["lower_sq"]
        assert result["lower_sq"] <= result["theory_upper_sq"] + 1e-9
        assert result["upper"] > result["lower"]
        entries = read_matrix(dump)
        assert entries.shape == (21, 500)

    def test_trivial_truncation_gives_one(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["matrix-norm", "--c1-re", "2", "--c2-abs", "0.5", "--rows", "0", "--cols", "1"],
        )
        assert code == 0
        assert doc["result"]["lower"] == pytest.approx(1.0, abs=1e-12)

    def test_huge_sigma1_stays_certified(self, capsys):
        # charged in full, the entry rounding of row 0 passed the 1/5 the
        # bracket's proof assumes (1e14) and then broke its square root (2e14)
        for c1_re in ("1e14", "2e14"):
            code, doc, _ = run_json(
                capsys,
                ["matrix-norm", "--c1-re", c1_re, "--c2-abs", "1", "--rows", "3", "--cols", "1000"],
            )
            assert code == 0
            result = doc["result"]
            assert result["upper_status"] == "certified"
            assert result["lower"] <= 1.0 <= result["upper"] <= 1.0 + 1e-11

    @pytest.mark.parametrize(
        "c2_abs, size",
        [("1", ["--rows", "3", "--cols", "100"]), ("1e308", []), ("1e308", ["--rows", "3", "--cols", "100"])],
    )
    def test_huge_re_c1_answers(self, capsys, c2_abs, size):
        # 2 Re c1 overflows: the column tails are taken at s = 2^1000, which
        # bounds them since they fall as s grows; with |c2| = 1e308, a
        # boundary symbol, |c2| ln j overflows past j = 6, where every entry
        # lies below 2^-1074.  Both end certified, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["matrix-norm", "--c1-re", "1e308", "--c2-abs", c2_abs, *size]
            code, doc, _ = run_json(capsys, argv)
        assert code == 0
        result = doc["result"]
        assert 1.0 - 1e-15 <= result["lower"] <= 1.0
        if c2_abs == "1":
            assert result["upper_status"] == "certified"
            assert 1.0 <= result["upper"] <= 1.0 + 1e-11
        else:
            assert result["upper_status"] == "uncertified"
        assert result["within_theorem_bracket"] is True

    @pytest.mark.parametrize(
        "c1_re, c2_abs, rows, cols",
        [("2000", "1999", "100", "1000"), ("50000.500000001", "50000", "200", "100000")],
    )
    def test_steep_row_piece_answers(self, capsys, c1_re, c2_abs, rows, cols):
        # the rows past the truncation peak left of column 2, where their
        # charge once overflowed exp; now it is capped by the whole series
        argv = ["matrix-norm", "--c1-re", c1_re, "--c2-abs", c2_abs, "--rows", rows, "--cols", cols]
        code, doc, _ = run_json(capsys, argv)
        assert code == 0
        assert math.isfinite(doc["result"]["tail_bound"])

    def test_subnormal_c2_answers(self, capsys):
        # |c2| / (2 Re c1) underflows to 0, whose log raised ValueError in
        # the row piece; below 2^-1022 every peak is below 2^-1074
        code, doc, _ = run_json(capsys, ["matrix-norm", "--c1-re", "1", "--c2-abs", "5e-324"])
        assert code == 0
        assert math.isfinite(doc["result"]["tail_bound"])

    @pytest.mark.parametrize("c2_arg", ["0", "0.5"])
    def test_largest_float_symbol_answers(self, capsys, c2_arg):
        big = "1.7976931348623157e308"
        argv = ["matrix-norm", "--c1-re", big, "--c2-abs", big, "--c2-arg", c2_arg]
        code, doc, _ = run_json(capsys, argv)
        assert code == 0
        result = doc["result"]
        assert result["upper_status"] == "uncertified"
        assert result["within_theorem_bracket"] is True

    @pytest.mark.parametrize("c1_re", ["1e10", "1e300"])
    def test_underflowing_row0_tail_answers_at_once(self, capsys, c1_re):
        # the tail's pass ends a few rows in, though row 0's column tail
        # underflows, so 20001 rows cost no more than 17
        start = time.perf_counter()
        argv = ["matrix-norm", "--c1-re", c1_re, "--c2-abs", "1", "--rows", "20000", "--cols", "10"]
        code, doc, _ = run_json(capsys, argv)
        assert time.perf_counter() - start < 10.0
        assert code == 0
        result = doc["result"]
        assert result["upper_status"] == "certified"
        assert result["lower"] == result["upper"] == 1.0
        assert 0.0 < result["tail_bound"] < 1e-160

    def test_boundary_upper_uncertified(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "matrix-norm",
                "--c1-re",
                "1",
                "--c2-abs",
                "0.5",
                "--rows",
                "20",
                "--cols",
                "400",
                "--format",
                "csv",
            ],
        )
        assert code == 0
        assert "uncertified" in out
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["upper"] == ""
        assert cells["within_theorem_bracket"] == "true"

    def test_estimate_just_above_the_bracket_fails(self, capsys, monkeypatch):
        # the only slack is the certified error of the zeta values, at most
        # 1e-12 relative here: 1e-9 above the theorem's upper end must fail
        upper_sq = norm_bounds(DirichletSymbol(2.0, 0.5)).upper_sq

        def above(matrix, tol):
            lower = math.sqrt(upper_sq * (1.0 + 1e-9))
            return operator_matrix.NormEstimate(lower, lower + matrix.tail_bound, 1, True)

        monkeypatch.setattr(operator_matrix, "operator_norm_estimate", above)
        code, doc, err = run_json(
            capsys,
            ["matrix-norm", "--c1-re", "2", "--c2-abs", "0.5", "--rows", "20", "--cols", "500"],
        )
        assert code == 1
        assert doc["result"]["within_theorem_bracket"] is False
        assert "escapes the proven bracket" in err

    def test_entry_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv(MAX_ENTRIES_ENV, "100")
        code, out, err = run_cli(
            capsys,
            ["matrix-norm", "--c1-re", "2", "--c2-abs", "0.5", "--rows", "20", "--cols", "500"],
        )
        assert code == 3
        assert out == ""
        assert "100" in err


class TestApproxNumbers:
    def test_table_rows_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["approx-numbers", "--c1-re", "2", "--c2-abs", "0.5", "--n-max", "5", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,computed,bound,ratio,ok"
        assert len(lines) == 6
        for n, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            assert int(cells[0]) == n
            assert float(cells[1]) <= float(cells[2]) + 1e-9
            assert cells[4] == "true"

    def test_json_table(self, capsys):
        code, doc, _ = run_json(
            capsys, ["approx-numbers", "--c1-re", "2", "--c2-abs", "0.5", "--n-max", "3"]
        )
        assert code == 0
        result = doc["result"]
        assert result["decay_ratio"] == pytest.approx(1.0 / 3.0, rel=1e-11)
        assert [row["N"] for row in result["table"]] == [1, 2, 3]
        assert all(row["ok"] for row in result["table"])

    def test_row_at_ten_times_the_bound_fails(self, capsys, monkeypatch):
        # at N = 25 the bound for (2, 0.5) is 1.4e-12, far below any fixed
        # absolute slack; the check must still see a tenfold excess there
        real = operator_matrix.singular_values

        def inflated(matrix, count):
            spectrum = real(matrix, count)
            values = spectrum.values.copy()
            values[25] = 10.0 * approx_number_bound(matrix.symbol).bound_at(25)
            return spectrum._replace(values=values)

        monkeypatch.setattr(operator_matrix, "singular_values", inflated)
        argv = ["approx-numbers", "--c1-re", "2", "--c2-abs", "0.5", "--rows", "30",
                "--n-max", "25", "--format", "csv"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert "1 singular value(s) exceed the proven bound" in err
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[4] for row in rows] == ["true"] * 24 + ["false"]

    @pytest.mark.parametrize("c2_abs", [0.05, 1.0])
    @pytest.mark.parametrize("gap", [0.3, 2.0])
    @pytest.mark.parametrize("rows,cols", [(20, 500), (40, 2000), (20, 2000), (40, 500)])
    def test_small_ratios_stay_ok(self, capsys, c2_abs, gap, rows, cols):
        # at ratio 0.024 the bound at N = 10 is ~1e-16, below the rounding
        # of sigma_1 itself; the resolution term must keep such rows ok
        argv = ["approx-numbers", "--c1-re", repr(0.5 + c2_abs + gap), "--c1-im", "37",
                "--c2-abs", repr(c2_abs), "--c2-arg", "2.5", "--q", "999983",
                "--rows", str(rows), "--cols", str(cols), "--n-max", "10", "--format", "csv"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        assert all(line.endswith(",true") for line in out.strip().split("\n")[1:])

    def test_boundary_symbol_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, ["approx-numbers", "--c1-re", "1", "--c2-abs", "0.5"]
        )
        assert code == 2
        assert out == ""
        assert "2 Re c1 - 2 |c2| - 1" in err

    def test_largest_float_symbol_reports_a_finite_gap(self, capsys):
        # 2 Re c1 overflows at Re c1 = |c2| = DBL_MAX: the gap comes from
        # the exact integers, 2 DBL_MAX - 2 DBL_MAX - 1 = -1
        big = "1.7976931348623157e308"
        code, out, err = run_cli(capsys, ["approx-numbers", "--c1-re", big, "--c2-abs", big])
        assert code == 2
        assert out == ""
        gap = float(err.strip().rpartition("got ")[2])
        assert gap == -1.0

    def test_n_max_zero_empty_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["approx-numbers", "--c1-re", "2", "--c2-abs", "0.5", "--n-max", "0", "--format", "csv"],
        )
        assert code == 0
        assert out == "N,computed,bound,ratio,ok\n"


class TestVerifyLemmas:
    def test_default_run_passes(self, capsys):
        code, doc, _ = run_json(capsys, ["verify-lemmas"])
        assert code == 0
        result = doc["result"]
        assert result["all_passed"] is True
        assert result["crossing"] == pytest.approx(6.2102, abs=5e-4)
        names = [check["name"] for check in result["checks"]]
        assert names == [
            "zeta-bracket",
            "zeta-lower-h",
            "shifted-zeta-g",
            "dominance-switch",
            "log-moment",
        ]
        for check in result["checks"]:
            assert check["failed"] == 0
            assert check["worst_margin"] >= -1e-12

    def test_tight_tolerance_passes(self, capsys):
        # the moment sums' derived rounding leaves room for a 1e-14 tolerance
        code, doc, _ = run_json(capsys, ["verify-lemmas", "--tol", "1e-14"])
        assert code == 0 and doc["result"]["all_passed"] is True

    def test_injected_fault_exits_1(self, capsys):
        code, doc, err = run_json(capsys, ["verify-lemmas", "--inject-fault"])
        assert code == 1
        assert doc["result"]["all_passed"] is False
        assert doc["result"]["checks"][0]["failed"] == 500
        assert "zeta-bracket" in err

    def test_csv_carries_crossing_row(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-lemmas", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "name,points,failed,worst_margin,passed,value"
        assert len(lines) == 7
        last = lines[-1].split(",")
        assert last[0] == "crossing-root"
        assert float(last[-1]) == pytest.approx(6.2102, abs=5e-4)


class TestFigure:
    def parse(self, out):
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        data = [[float(cell) for cell in line.split(",")] for line in lines[1:-1]]
        footer = lines[-1].split(",")
        return header, data, footer

    def test_shape_and_ordering(self, capsys):
        code, out, _ = run_cli(capsys, ["figure"])
        assert code == 0
        header, data, footer = self.parse(out)
        assert header == ["x", "inv_x_plus_f", "inv_x_plus_g", "zeta_one_plus_x"]
        assert len(data) == 200
        assert data[0][0] == pytest.approx(0.1) and data[-1][0] == pytest.approx(10.0)
        assert footer[0] == "crossing"
        crossing = float(footer[1])
        assert crossing == pytest.approx(6.2102, abs=5e-4)
        for x, with_f, with_g, zeta_col in data:
            assert with_f <= zeta_col + 1e-9
            assert with_g <= zeta_col + 1e-9
            if x < crossing - 0.05:
                assert with_g > with_f
            elif x > crossing + 0.05:
                assert with_g < with_f

    def test_point_count_flag(self, capsys):
        code, out, _ = run_cli(capsys, ["figure", "--points", "50"])
        assert code == 0
        assert len(out.strip().split("\n")) == 52

    def test_json_format_available(self, capsys):
        code, doc, _ = run_json(capsys, ["figure", "--format", "json"])
        assert code == 0
        assert len(doc["result"]["rows"]) == 200
        assert doc["result"]["crossing"] == pytest.approx(6.2102, abs=5e-4)


class TestToleranceSweep:
    def test_tolerances_near_the_budget_limit(self, capsys, monkeypatch):
        # --tol log-uniform in [1e-16, 1e-13] on all five commands: each run
        # exits 3 with the budget's message, or exits 0 with every zeta value
        # it prints within tol max(1, zeta) of the 40-digit zeta at the
        # value's float argument.  Floats are read unrounded: the
        # documents' 12 significant digits would hide a miss
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(cli, "_round_floats", lambda obj: obj)
        sizes = {
            "bounds": [],
            "matrix-norm": ["--rows", "20", "--cols", "500"],
            "approx-numbers": ["--n-max", "4"],
            "verify-lemmas": [],
            "figure": ["--points", "5"],
        }
        symbols = [(2.0, 0.5), (1.6, 0.3), (1.0, 0.5), (3.5000000000015, 3.0)]

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.floats(math.log(1e-16), math.log(1e-13)),
            st.sampled_from(sorted(sizes)),
            st.sampled_from(symbols),
        )
        def check(log_tol, command, symbol):
            tol = math.exp(log_tol)
            sigma1, c = symbol if command in ("bounds", "matrix-norm") else (2.0, 0.5)
            argv = [command, *sizes[command], "--tol", repr(tol), "--format", "json"]
            argv += ["--c1-re", repr(sigma1), "--c2-abs", repr(c)] if command != "figure" else []
            code, out, err = run_cli(capsys, argv)
            if code == 3:
                assert out == "" and err.startswith("resource limit: ")
                assert "misses the requested tolerance" in err
                return
            assert code == 0, (argv, err)
            result = json.loads(out)["result"]
            ends = {"bounds": ("lower_sq", "upper_sq"),
                    "matrix-norm": ("theory_lower_sq", "theory_upper_sq")}.get(command)
            zetas = []
            if ends:
                upper_s = 2.0 * sigma1 - schur_radius(sigma1, c) * c
                zetas = [(result[ends[0]], 2.0 * sigma1), (result[ends[1]], upper_s)]
            if command == "figure":
                zetas = [(row[3], 1.0 + row[0]) for row in result["rows"]]
            for value, s in zetas:
                exact = mpmath.zeta(s)
                assert abs(value - exact) <= tol * max(1, exact), (argv, value, s)

        with mpmath.workdps(40):
            check()


class TestPlumbing:
    def test_byte_identical_documents(self, capsys):
        argv = ["bounds", "--c1-re", "2", "--c2-abs", "0.5"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        argv = ["figure", "--points", "50"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, ["bounds", "--c1-re", "2", "--c2-abs", "0.5", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["result"]["symbol_class"] == "compact"

    def test_config_file_precedence(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# comment line\n"
            "c1-re = 1.0\n"
            "cols = 123\n"
            "format = csv\n"
        )
        code, out, _ = run_cli(
            capsys, ["bounds", "--config", str(config), "--c1-re", "2"]
        )
        assert code == 0
        # flag wins over file for c1-re; file wins over defaults for format
        assert out.startswith("symbol_class,")
        assert "compact" in out

        code, doc, _ = run_json(
            capsys,
            ["matrix-norm", "--config", str(config), "--c1-re", "2", "--format", "json"],
        )
        assert code == 0
        assert doc["config"]["c1_re"] == 2.0
        assert doc["config"]["cols"] == 123
        assert doc["result"]["cols"] == 123

    def test_config_file_rejects_unknown_key(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("mystery = 4\n")
        code, _, err = run_cli(capsys, ["bounds", "--config", str(config)])
        assert code == 2
        assert "mystery" in err

    def test_config_file_rejects_bad_line(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just some words\n")
        code, _, err = run_cli(capsys, ["bounds", "--config", str(config)])
        assert code == 2
        assert "key=value" in err

    def test_file_tol_yields_to_file_abs_tol(self, capsys, tmp_path):
        # a bare `tol` sets both tolerances; a file's abs_tol wins over its
        # tol, and the --tol flag wins over both
        config = tmp_path / "tol.cfg"
        config.write_text("tol = 1e-10\nabs_tol = 1e-11\n")
        code, doc, _ = run_json(capsys, ["bounds", "--config", str(config)])
        assert code == 0
        assert (doc["config"]["abs_tol"], doc["config"]["rel_tol"]) == (1e-11, 1e-10)
        code, doc, _ = run_json(capsys, ["bounds", "--config", str(config), "--tol", "1e-9"])
        assert code == 0
        assert (doc["config"]["abs_tol"], doc["config"]["rel_tol"]) == (1e-9, 1e-9)

    def test_max_terms_only_from_a_file(self, capsys, tmp_path):
        config = tmp_path / "terms.cfg"
        config.write_text("max_terms = 5000\n")
        code, doc, _ = run_json(capsys, ["bounds", "--config", str(config)])
        assert code == 0
        assert doc["config"]["max_terms"] == 5000
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds", "--max-terms", "5000"])
        assert exit_info.value.code == 2
        assert "--max-terms" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line",
        [("matrix-norm", "dump_matrix = m.txt"), ("verify-lemmas", "inject_fault = true")],
    )
    def test_flag_only_keys_rejected_in_a_file(self, capsys, tmp_path, command, line):
        config = tmp_path / "flag_only.cfg"
        config.write_text(line + "\n")
        code, out, err = run_cli(capsys, [command, "--config", str(config)])
        assert code == 2
        assert out == ""
        assert f"unknown key {line.split()[0]!r}" in err
        assert not (tmp_path / "m.txt").exists()

    def test_figure_csv_default_yields_to_file_and_flag(self, capsys, tmp_path):
        # flag > file > figure's csv default > the built-in json
        argv = ["figure", "--points", "3"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and out.startswith("x,")
        config = tmp_path / "json.cfg"
        config.write_text("format = json\n")
        code, doc, _ = run_json(capsys, [*argv, "--config", str(config)])
        assert code == 0 and doc["config"]["format"] == "json"
        code, doc, _ = run_json(capsys, [*argv, "--format", "json"])
        assert code == 0 and doc["command"] == "figure"
        config.write_text("format = csv\n")
        code, doc, _ = run_json(capsys, [*argv, "--config", str(config), "--format", "json"])
        assert code == 0 and len(doc["result"]["rows"]) == 3

    def test_tol_flag_sets_both_tolerances(self, capsys):
        code, doc, _ = run_json(
            capsys, ["bounds", "--c1-re", "2", "--c2-abs", "0.5", "--tol", "1e-10"]
        )
        assert code == 0
        assert doc["config"]["abs_tol"] == 1e-10
        assert doc["config"]["rel_tol"] == 1e-10

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dirichletops", "bounds", "--c1-re", "2", "--c2-abs", "0.5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["result"]["symbol_class"] == "compact"

    @pytest.mark.parametrize(
        "argv",
        [[], ["bounds"], ["figure", "--points", "5"], ["verify-lemmas"],
         ["matrix-norm", "--rows", "3", "--cols", "10"], ["approx-numbers", "--n-max", "2"]],
        ids=repr,
    )
    def test_scalar_commands_never_load_numpy(self, argv):
        # a fresh interpreter imports the CLI or runs `python -m dirichletops`
        # in process, then checks that no command loaded dataclasses and
        # that the scalar ones loaded neither numpy nor inspect (which
        # numpy loads)
        probe = (
            "import runpy, sys\n"
            "if sys.argv[1:]:\n"
            "    try:\n"
            "        runpy.run_module('dirichletops', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, exc.code\n"
            "else:\n"
            "    import dirichletops.cli\n"
            "assert 'dataclasses' not in sys.modules, 'dataclasses was loaded'\n"
            "if sys.argv[1:2] not in (['matrix-norm'], ['approx-numbers']):\n"
            "    for name in ('numpy', 'inspect'):\n"
            "        assert name not in sys.modules, name + ' was loaded'\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout if argv else not proc.stdout

    def test_matrix_names_load_numpy_on_first_use(self):
        probe = (
            "import sys\n"
            "import dirichletops\n"
            "assert 'numpy' not in sys.modules\n"
            "from dirichletops import build_matrix\n"
            "assert 'numpy' in sys.modules\n"
            "assert dirichletops.build_matrix is build_matrix\n"
            "assert build_matrix(dirichletops.DirichletSymbol(2, 0.5), 3, 10).row_count == 4\n"
            "assert not hasattr(dirichletops, 'no_such_name')\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
