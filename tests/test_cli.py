import contextlib
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from circsing import asym, binomstats, cli, singexact, verify
from circsing.errors import BudgetExceededError

import oracles

HALF = Fraction(1, 2)


def table_from_csv(text: str) -> list[asym.ConvergenceRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != cli.TABLE_COLUMNS:
        raise ValueError(f"unexpected table header {header}")
    rows = []
    for rec in reader:
        exact = (Fraction(int(rec[1]), int(rec[2])) if rec[1] else None)
        rows.append(asym.ConvergenceRow(
            n=int(rec[0]), exact=exact, approx=float(rec[4]),
            ratio=float(rec[5]) if rec[5] else None, formula=rec[6]))
    return rows


def run_capture(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExactCommand:
    def test_n6_report(self, capsys):
        code, out, _ = run_capture(capsys, ["exact", "--n", "6", "--q", "1/2"])
        assert code == 0
        data = json.loads(out)
        assert data["exact_union"] == {"num": "7", "den": "16", "decimal": "0.4375"}
        values = {e["d"]: (e["value"]["num"], e["value"]["den"])
                  for e in data["per_divisor"]}
        assert values == {1: ("1", "64"), 2: ("5", "16"),
                          3: ("5", "32"), 6: ("5", "32")}

    def test_n2(self, capsys):
        code, out, _ = run_capture(capsys, ["exact", "--n", "2", "--q", "1/2"])
        assert code == 0
        assert json.loads(out)["exact_union"]["num"] == "1"
        assert json.loads(out)["exact_union"]["den"] == "2"

    def test_requires_rational_q(self, capsys):
        code, _, err = run_capture(capsys, ["exact", "--n", "4", "--q", "0.5"])
        assert code == 2
        assert "fraction" in err

    def test_digits_beyond_str_limit(self, capsys):
        # prime n: (1/3)^n + (2/3)^n, whose denominator has 4308 digits,
        # above the interpreter's default limit of 4300
        value = Fraction(1 + 2 ** 9029, 3 ** 9029)
        want = {"num": oracles.decimal_digits(value.numerator),
                "den": oracles.decimal_digits(value.denominator)}
        assert len(want["den"]) == 4308
        code, out, _ = run_capture(capsys, ["exact", "--n", "9029", "--q", "1/3"])
        assert code == 0
        union = json.loads(out)["exact_union"]
        assert {k: union[k] for k in want} == want
        code, out, _ = run_capture(
            capsys, ["divisor", "--n", "9029", "--d", "9029", "--q", "1/3"])
        assert code == 0
        divisor = json.loads(out)["value"]
        assert {k: divisor[k] for k in want} == want

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run_capture(
            capsys, ["exact", "--n", "4", "--q", "1/2", "--output", str(path)])
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["n"] == 4

    @pytest.mark.parametrize("argv", [
        ["exact", "--n", "4", "--q", "1/2"],
        ["table", "--n-range", "2:6", "--q", "1/2"],
        ["table", "--n-range", "2:6", "--q", "1/2", "--format", "json"],
    ])
    def test_output_file_holds_stdout_text(self, tmp_path, capsys, argv):
        # JSON and CSV alike: the file gets stdout's bytes, final newline too
        code, stdout, _ = run_capture(capsys, argv)
        assert code == 0 and stdout.endswith("\n")
        path = tmp_path / "out"
        assert run_capture(capsys, argv + ["--output", str(path)])[:2] == (0, "")
        assert path.read_bytes() == stdout.encode()

    @pytest.mark.parametrize("where", ["missing/report.json", "."])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, where):
        # a missing directory or a directory: one error line, exit 2
        path = tmp_path / where
        code, out, err = run_capture(
            capsys, ["exact", "--n", "4", "--q", "1/2", "--output", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_unwritable_output_refused_before_work(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_report(*args, **kwargs):
            raise AssertionError("computed before --output was opened")
        monkeypatch.setattr(singexact, "report", no_report)
        path = tmp_path / "missing" / "report.json"
        code, out, err = run_capture(
            capsys, ["exact", "--n", "38", "--q", "1/2", "--output", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["exact", "--n", "4", "--q", "1/2"],
        ["table", "--n-range", "2:40", "--q", "1/2"],
    ])
    def test_full_disk_is_resource_error(self, capsys, argv):
        # the write or the flush at close raises ENOSPC: one line, exit 3
        code, out, err = run_capture(capsys, argv + ["--output", "/dev/full"])
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot write /dev/full: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_stdout_write_error_is_resource_error(self, capsys, monkeypatch):
        # run writes to sys.stdout as it finds it at call time
        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = cli.run(["exact", "--n", "4", "--q", "1/2"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n")

    def test_failed_command_leaves_output_empty(self, tmp_path, capsys):
        # --output is opened, and so emptied, once q has parsed
        path = tmp_path / "report.json"
        path.write_text("old")
        code, _, err = run_capture(
            capsys, ["exact", "--n", "4", "--q", "2", "--output", str(path)])
        assert code == 2 and "q=2 must lie strictly between" in err
        assert path.read_text() == "old"
        code, _, err = run_capture(
            capsys, ["exact", "--n", "0", "--q", "1/2", "--output", str(path)])
        assert code == 2 and "n must be positive" in err
        assert path.read_text() == ""


@pytest.mark.parametrize("argv, message", [
    (["exact", "--n", "4", "--q", "abc"],
     "cannot parse q='abc': could not convert string to float: 'abc'"),
    (["exact", "--n", "4", "--q", "1/0"], "cannot parse q='1/0': Fraction(1, 0)"),
    (["mc", "--n", "4", "--q", "x/2", "--samples", "3"],
     "cannot parse q='x/2': Invalid literal for Fraction: 'x/2'"),
    (["exact", "--n", "4", "--q", "3/2"], "q=3/2 must lie strictly between 0 and 1"),
    (["asym", "--n", "4", "--q", "1"], "q=1 must lie strictly between 0 and 1"),
    (["divisor", "--n", "4", "--d", "2", "--q", "0.5"],
     "the divisor command computes exact rationals; pass q as a fraction like 1/2"),
    (["bounds", "--n", "4", "--q", "0.25"],
     "the bounds command computes exact rationals; pass q as a fraction like 1/2"),
    (["table", "--n-range", "2:4", "--q", "0.5"],
     "the table command computes exact rationals; pass q as a fraction like 1/2"),
])
def test_q_errors(capsys, argv, message):
    assert run_capture(capsys, argv) == (2, "", f"error: {message}\n")


class TestRefusalsComeFirst:
    """Dimensions every budget refuses are refused before n is factored
    (the table's rows: ``test_asym``)."""

    @pytest.mark.parametrize("n", [str(n) for n in oracles.HUGE_N])
    def test_bounds_refused(self, capsys, factor_limit, n):
        factor_limit(binomstats.POWER_SUM_BUDGET)
        code, out, err = run_capture(capsys, ["bounds", "--n", n, "--q", "1/2"])
        assert (code, out) == (3, "")
        assert err == (f"error: bounds for n={n} need exponent {n} "
                       "(budget 200000)\n")

    @pytest.mark.parametrize("n", [str(n) for n in oracles.HUGE_N])
    def test_mc_refused(self, capsys, factor_limit, n):
        factor_limit(0)
        code, out, err = run_capture(
            capsys, ["mc", "--n", n, "--q", "1/2", "--samples", "1"])
        assert (code, out) == (3, "")
        assert err.startswith(f"error: mask columns for n={n} take at least ")


class TestDivisorAndBounds:
    def test_divisor(self, capsys):
        code, out, _ = run_capture(
            capsys, ["divisor", "--n", "6", "--d", "3", "--q", "1/2"])
        assert code == 0
        data = json.loads(out)
        assert (data["value"]["num"], data["value"]["den"]) == ("5", "32")
        assert data["method"] == "prime-closed-form"

    def test_divisor_signed_d1(self, capsys):
        code, out, _ = run_capture(
            capsys, ["divisor", "--n", "4", "--d", "1", "--q", "1/2", "--signed"])
        assert code == 0
        data = json.loads(out)
        assert (data["value"]["num"], data["value"]["den"]) == ("3", "8")

    def test_bounds(self, capsys):
        code, out, _ = run_capture(capsys, ["bounds", "--n", "4", "--q", "1/2"])
        assert code == 0
        data = json.loads(out)
        by_d = {b["d"]: b for b in data["bounds"]}
        assert by_d[2]["lower"]["num"] == "1" and by_d[2]["lower"]["den"] == "4"
        assert by_d[4]["lower"] is None
        assert by_d[4]["upper"]["den"] == "4"


class TestAsymCommand:
    def test_closed_formula(self, capsys):
        code, out, _ = run_capture(
            capsys, ["asym", "--n", "10000", "--q", "0.5", "--formula", "closed"])
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(0.0079788, abs=1e-7)
        assert data["formula"] == "closed-form-corollary"

    def test_signed(self, capsys):
        code, out, _ = run_capture(
            capsys, ["asym", "--n", "100", "--q", "0.5", "--signed"])
        assert code == 0
        assert json.loads(out)["formula"] == "signed-corollary"

    def test_wide_denominator_falls_back_to_float_sum(self, capsys):
        # the exact power sum at n = 4096 needs 4096 powers of 99 bits each,
        # past the exponent budget: the float sum answers, as at n = 4097
        q = "1/" + "1" + "0" * 30
        code, out, _ = run_capture(capsys, ["asym", "--n", "4096", "--q", q])
        assert code == 0
        data = json.loads(out)
        assert data["value"] == asym.approx_main(4096, 1e-30).value
        assert data["formula"] == "main-theorem"
        code, out, _ = run_capture(
            capsys, ["table", "--n-range", "4094:4096:2", "--q", q])
        assert code == 0
        assert [row.approx for row in table_from_csv(out)] == [
            asym.approx_main(n, 1e-30).value for n in (4094, 4096)]

    @pytest.mark.parametrize("tail", [["--signed"], ["--formula", "closed"], []])
    def test_huge_n_takes_its_log_apart(self, capsys, tail):
        # n = 10^400 is past the float range; n^(-1/2) is not
        code, out, _ = run_capture(
            capsys, ["asym", "--n", "1" + "0" * 400, "--q", "0.5", *tail])
        assert code == 0
        want = math.sqrt(2 / math.pi) * 1e-200 * (2 if tail == ["--signed"] else 1)
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["--n", "2300069", "--q", "1e-300"],
        ["--n", "2300069", "--q", "1e-300", "--formula", "closed"],
        ["--n", "1517", "--q", "1e-30", "--formula", "closed"]])
    def test_value_past_float_range_is_usage_error(self, capsys, argv):
        code, out, err = run_capture(capsys, ["asym", *argv])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"n={argv[1]}, q={argv[3]} is past the float range" in err

    def test_largest_closed_rate_still_prints(self, capsys):
        code, out, _ = run_capture(
            capsys, ["asym", "--n", "667", "--q", "1e-30", "--formula", "closed"])
        assert code == 0
        assert '"value": 2.836478873094682e+304,' in out

    def test_closed_rejects_prime(self, capsys):
        code, _, err = run_capture(
            capsys, ["asym", "--n", "13", "--q", "0.5", "--formula", "closed"])
        assert code == 2
        assert "composite" in err


class TestTableCommand:
    def test_csv_roundtrip(self, capsys):
        rows = asym.convergence_table(HALF, range(4, 17, 2))
        text = cli.table_to_csv(rows)
        assert table_from_csv(text) == rows

    def test_csv_output(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table", "--n-range", "4:8:2", "--q", "1/2"])
        assert code == 0
        parsed = table_from_csv(out)
        assert [r.n for r in parsed] == [4, 6, 8]
        assert parsed[0].exact == HALF
        assert parsed[1].ratio == pytest.approx(1.4)

    def test_json_output(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table", "--n-range", "4:6", "--q", "1/2", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert [e["n"] for e in data] == [4, 5, 6]
        assert data[1]["ratio"] == 1.0

    def test_underflowed_approx(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table", "--n-range", "1100:1110", "--q", "1/2"])
        assert code == 0
        row = next(r for r in table_from_csv(out) if r.n == 1103)
        assert row.exact == HALF ** 1102
        # the ratio comes from the exact dominant sum, which equals the union
        assert row.approx == 0.0 and row.ratio == 1.0

    def test_digits_beyond_str_limit(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table", "--n-range", "9029:9029", "--q", "1/3"])
        assert code == 0
        cells = out.splitlines()[1].split(",")
        value = Fraction(1 + 2 ** 9029, 3 ** 9029)
        assert cells[1] == oracles.decimal_digits(value.numerator)
        assert cells[2] == oracles.decimal_digits(value.denominator)
        assert cells[4] == "0.0"  # the approximation underflows to 0.0
        assert cells[5] == "1.0"  # ratio to the exact dominant sum

    def test_row_past_exponent_budget_left_absent(self, capsys):
        # n = 2021 = 43 * 47 has a closed-form union, which the exponent
        # budget refuses (2021 * 99 bits); the other rows pass the row budget
        q = "1/" + "1" + "0" * 30
        code, out, _ = run_capture(
            capsys, ["table", "--n-range", "2021:2024", "--q", q])
        assert code == 0
        rows = table_from_csv(out)
        assert [r.n for r in rows] == [2021, 2022, 2023, 2024]
        assert all(r.exact is None and r.ratio is None for r in rows)
        assert [r.approx for r in rows] == [
            asym.approx_main(n, 1e-30).value for n in range(2021, 2025)]

    def test_range_parsing(self):
        assert cli.parse_n_range("4:8:2") == [4, 6, 8]
        assert cli.parse_n_range("4:9:2") == [4, 6, 8]  # end not hit
        assert cli.parse_n_range("3:5") == [3, 4, 5]
        with pytest.raises(ValueError):
            cli.parse_n_range("5")
        with pytest.raises(ValueError):
            cli.parse_n_range("8:4")


class TestDecimalView:
    @pytest.mark.parametrize("n, q, want", [
        (1103, "1/2", "1.84053795725572e-332"),  # float(x) is 0.0
        (1777, "1/3", "1.21851998946768e-313"),  # float(x) is subnormal
    ])
    def test_json_and_csv_round_the_fraction(self, capsys, n, q, want):
        code, out, _ = run_capture(
            capsys, ["divisor", "--n", str(n), "--d", str(n), "--q", q])
        assert code == 0
        in_json = json.loads(out)["value"]["decimal"]
        code, out, _ = run_capture(
            capsys, ["table", "--n-range", f"{n}:{n}", "--q", q])
        assert code == 0
        assert in_json == out.splitlines()[1].split(",")[3] == want

    @pytest.mark.parametrize("x", [
        HALF ** 1102, Fraction(1 + 2 ** 1777, 3 ** 1777), HALF ** 1075,
        Fraction(7, 3) * HALF ** 1030, Fraction(2, 3) ** 190_000])
    def test_tiny_values_within_half_unit(self, x):
        view = cli.decimal_view(x)
        mantissa, exponent = view.split("e")
        assert 1 <= float(mantissa) < 10 and len(mantissa) <= 16
        assert abs(Fraction(view) - x) <= Fraction(10) ** (int(exponent) - 14) / 2

    def test_normal_floats_keep_the_float_view(self):
        for x in (Fraction(1, 3), HALF ** 1022, Fraction(10 ** 20, 7), Fraction(0)):
            assert cli.decimal_view(x) == f"{float(x):.15g}"


class TestMcCommand:
    def test_reproducible_runs(self, capsys):
        argv = ["mc", "--n", "4", "--q", "1/2", "--samples", "20000",
                "--seed", "5", "--shards", "4"]
        code, out1, _ = run_capture(capsys, argv)
        assert code == 0
        code, out2, _ = run_capture(capsys, argv)
        assert json.loads(out1) == json.loads(out2)
        data = json.loads(out1)
        assert data["generator"] == "philox-4x64-10"
        assert data["q_source"] == "1/2"
        assert data["q"] == 0.5

    def test_samples_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CIRCSING_SAMPLES_CAP", "1000")
        code, _, err = run_capture(
            capsys, ["mc", "--n", "4", "--q", "0.5", "--samples", "2000"])
        assert code == 3
        assert "cap" in err

    def test_samples_cap_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("CIRCSING_SAMPLES_CAP", "abc")
        code, out, err = run_capture(
            capsys, ["mc", "--n", "4", "--q", "0.5", "--samples", "10"])
        assert code == 2 and out == ""
        assert "CIRCSING_SAMPLES_CAP must be an integer" in err

    def test_mask_columns_over_byte_budget(self, capsys):
        # n = 65536 needs 1 864 368 128 bytes of columns, past 1 GiB: refused
        # before any is allocated
        code, out, err = run_capture(
            capsys, ["mc", "--n", "65536", "--q", "1/2", "--samples", "1"])
        assert code == 3 and out == ""
        assert "take 1864368128 bytes (budget 1073741824)" in err


class TestBudgetsAndErrors:
    def test_enumeration_budget_flag(self, capsys):
        code, _, err = run_capture(
            capsys, ["divisor", "--n", "60", "--d", "30", "--q", "1/2",
                     "--enum-budget", "10"])
        assert code == 3
        assert "candidate" in err

    def test_work_budget_boundary(self, capsys):
        # d = 70 at n = 140: the convolution visits 10356 candidates
        code, out, err = run_capture(
            capsys, ["divisor", "--n", "140", "--d", "70", "--q", "1/3",
                     "--enum-budget", "10355"])
        assert code == 3 and out == ""
        assert "10356 candidates" in err

    def test_engine_exponent_budget(self, capsys):
        # d = 2 * 200003: two image vectors, but a value over 3^400006
        code, out, err = run_capture(
            capsys, ["divisor", "--n", "400006", "--d", "400006", "--q", "1/3"])
        assert code == 3 and out == ""
        assert "exponent 400006" in err and "budget 200000" in err

    @pytest.mark.parametrize("argv", [
        # d = 2^19: the power sum needs exponent 2, its power ** e the rest
        ["divisor", "--n", "524288", "--d", "524288"],
        # binom_max(1, 1/3) needs exponent 1, its power phi(d) the rest
        ["bounds", "--n", "2097152", "--d", "2097152"],
    ])
    def test_exponent_budget_counts_n(self, capsys, argv):
        code, out, err = run_capture(capsys, argv + ["--q", "1/3"])
        assert code == 3 and out == ""
        assert f"exponent {argv[2]}" in err and "budget 200000" in err

    def test_bounds_exponent_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        code, _, err = run_capture(capsys, ["bounds", "--n", "22", "--q", "1/3"])
        assert code == 3
        assert "exponent" in err

    def test_exact_exponent_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        code, out, err = run_capture(capsys, ["exact", "--n", "12", "--q", "1/2"])
        assert code == 3 and out == ""
        assert "exponent 12" in err

    def test_d1_exponent_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        code, _, err = run_capture(capsys, ["divisor", "--n", "11", "--d", "1",
                                            "--q", "1/3"])
        assert code == 3
        assert "exponent" in err

    def test_table_brute_budget(self, capsys):
        # n = 12 has no closed form; its union spends 2^tau(12) * 2^6 = 2^12
        # half-row scans
        argv = ["table", "--n-range", "12:12", "--q", "1/2"]
        code, out, _ = run_capture(capsys, argv)
        assert code == 0 and out.splitlines()[1].split(",")[1] == "47"
        code, out, _ = run_capture(capsys, argv + ["--brute-budget", "4096"])
        assert code == 0 and out.splitlines()[1].split(",")[1] == "47"
        code, out, _ = run_capture(capsys, argv + ["--brute-budget", "4095"])
        assert code == 0 and out.splitlines()[1].split(",")[1] == ""

    @pytest.mark.parametrize("model", [[], ["--signed"]])
    def test_union_past_float64_absent_at_raised_budget(self, capsys, model):
        # n = 54 = 2 * 3^3 spends 2^8 * 2^27 = 2^35 half-row scans, within
        # this budget, but its counts pass float64: absent, not exit 3
        raised = ["--q", "1/2", "--brute-budget", "34359738368", *model]
        code, out, err = run_capture(capsys, ["exact", "--n", "54", *raised])
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data["exact_union"], data["provenance"]) == \
            (None, "absent-over-budget")
        code, out, err = run_capture(capsys, ["table", "--n-range", "54:54", *raised])
        assert (code, err) == (0, "")
        (row,) = table_from_csv(out)
        assert row.n == 54 and row.exact is None and row.ratio is None

    @pytest.mark.parametrize("n_range, rows", [
        ("2:10000000000", 9_999_999_999), ("2:10000000000:3", 3_333_333_333),
        ("1:" + "9" * 40, 10 ** 40 - 1)])
    def test_table_rows_past_cap_refused_before_listing(self, tmp_path, capsys,
                                                        n_range, rows):
        path = tmp_path / "table.csv"
        tracemalloc.start()
        try:
            began = time.perf_counter()
            code, out, err = run_capture(
                capsys, ["table", "--n-range", n_range, "--q", "1/2",
                         "--output", str(path)])
            elapsed = time.perf_counter() - began
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err == (f"error: range {n_range!r} has {rows} rows, past the "
                       f"cap {cli.TABLE_ROWS_CAP}\n")
        assert path.read_text() == ""
        assert elapsed < 1 and peak < 1 << 20

    def test_table_rows_cap_counts_rows(self, monkeypatch):
        monkeypatch.setattr(cli, "TABLE_ROWS_CAP", 3)
        assert cli.parse_n_range("2:4") == [2, 3, 4]
        assert cli.parse_n_range("2:9:3") == [2, 5, 8]
        with pytest.raises(BudgetExceededError) as info:
            cli.parse_n_range("2:5")
        assert (info.value.required, info.value.budget) == (4, 3)

    @pytest.mark.parametrize("exc, line", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 288. MiB"),
         "error: Unable to allocate 288. MiB\n"),
    ])
    def test_memory_error_is_resource_error(self, tmp_path, capsys,
                                            monkeypatch, exc, line):
        def no_memory(*args):
            raise exc
        monkeypatch.setattr(asym, "convergence_table", no_memory)
        path = tmp_path / "table.csv"
        path.write_text("old")
        code, out, err = run_capture(
            capsys, ["table", "--n-range", "2:4", "--q", "1/2", "--output", str(path)])
        assert (code, out, err) == (3, "", line)
        assert path.read_text() == ""

    @pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_AS")
    def test_out_of_memory_is_resource_error(self, tmp_path):
        # a child that holds its own address space to 2 GB and lifts the
        # row cap: the 10^10 rows of the range cannot be listed, which is
        # one line and exit 3
        child = (
            "import resource, sys\n"
            "soft, hard = 2_000_000 << 10, resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "if hard != resource.RLIM_INFINITY:\n"
            "    soft = min(soft, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
            "from circsing import cli\n"
            "cli.TABLE_ROWS_CAP = 10 ** 11\n"
            "sys.exit(cli.run(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        path = tmp_path / "table.csv"
        proc = subprocess.run(
            [sys.executable, "-c", child, "table", "--n-range", "2:10000000000",
             "--q", "1/2", "--output", str(path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (3, "", "error: out of memory\n")
        assert path.read_text() == ""

    def test_union_frontier_at_default_budget(self, capsys):
        # 2^tau(n) * 2^ceil(n/2) half-row scans: 2^20, 2^23 and 2^22 fit
        # the default 2^23; n = 36 and 40 (2^27, 2^28) are left absent
        code, out, _ = run_capture(
            capsys, ["table", "--n-range", "28:40:2", "--q", "1/2"])
        assert code == 0
        rows = {r.n: r.exact for r in table_from_csv(out)}
        assert [n for n, exact in rows.items() if exact is None] == [36, 40]
        for n in (28, 30):
            counts = oracles.WEIGHT_COUNTS[n, "binary"]
            assert rows[n] == Fraction(sum(counts), 1 << n)

    @pytest.mark.parametrize("argv", [
        ["divisor", "--n", "6", "--d", "3", "--q", "1/2", "--brute-budget", "10"],
        ["table", "--n-range", "4:6", "--q", "1/2", "--enum-budget", "10"],
        ["bounds", "--n", "6", "--q", "1/2", "--enum-budget", "10"],
        ["mc", "--n", "4", "--q", "1/2", "--samples", "10", "--brute-budget", "10"],
    ])
    def test_budget_flags_only_where_spent(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    def test_shards_above_samples(self, capsys):
        code, _, err = run_capture(
            capsys, ["mc", "--n", "4", "--q", "1/2", "--samples", "3",
                     "--shards", "4"])
        assert code == 2
        assert "shards" in err

    def test_usage_error(self, capsys):
        assert cli.run(["exact", "--n", "4"]) == 2  # missing --q
        assert cli.run(["nonsense"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0


def test_json_key_order(capsys):
    # json.loads comparisons cannot see key order; the output schema fixes it
    def keys(argv):
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        return json.loads(out)

    rational = ["num", "den", "decimal"]
    entry = ["d", "n", "q", "value", "method"]
    data = keys(["exact", "--n", "36", "--q", "1/2",
                 "--enum-budget", "3", "--brute-budget", "1000"])
    assert list(data) == ["n", "q", "model", "exact_union", "per_divisor",
                          "bounds", "provenance", "omitted"]
    assert list(data["q"]) == rational
    assert list(data["per_divisor"][0]) == entry
    assert list(data["bounds"][0]) == ["d", "lower", "upper"]
    assert list(data["bounds"][0]["upper"]) == rational
    assert list(data["omitted"][0]) == ["d", "reason"]
    data = keys(["divisor", "--n", "6", "--d", "3", "--q", "1/2"])
    assert list(data) == entry
    assert list(data["value"]) == rational
    data = keys(["bounds", "--n", "6", "--q", "1/2"])
    assert list(data) == ["n", "q", "bounds"]
    assert list(data["bounds"][0]) == ["d", "lower", "upper"]
    assert list(keys(["asym", "--n", "30", "--q", "1/2"])) == [
        "n", "q", "model", "value", "formula"]
    for row in keys(["table", "--n-range", "4:6", "--q", "1/2",
                     "--format", "json"]):
        assert list(row) == ["n", "exact", "approx", "ratio", "formula"]
    mc = ["p_hat", "stderr", "samples", "singular_count", "seed", "model",
          "n", "q", "shards", "generator"]
    argv = ["mc", "--n", "4", "--samples", "100", "--q"]
    assert list(keys(argv + ["0.5"])) == mc
    assert list(keys(argv + ["1/2"])) == mc + ["q_source"]


class TestVerifyCommand:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_disk_is_resource_error(self, capsys, monkeypatch):
        # the summary goes through run's write path: one line, exit 3
        full = open("/dev/full", "w", encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", full)
        try:
            code = cli.run(["verify", "--suite", "bounds"])
        finally:
            with contextlib.suppress(OSError):  # the unwritten summary
                full.close()
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    def test_failing_suite(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "bounds", [
            lambda: ("a", True, ""), lambda: ("b", False, "why"),
            lambda: ("c", False, "")])
        assert run_capture(capsys, ["verify", "--suite", "bounds"]) == (
            1, "bounds: FAIL (1/3 checks)\n",
            "bounds: FAIL b (why)\nbounds: FAIL c\n")

    def test_algebra_suite_passes(self, capsys):
        code, out, err = run_capture(capsys, ["verify", "--suite", "algebra"])
        assert code == 0
        assert out.strip().startswith("algebra: PASS")
        assert err == ""

    @pytest.mark.parametrize("suite", ["bounds", "closed-forms",
                                       "asymptotics", "mc"])
    def test_suite_passes(self, capsys, suite):
        code, out, err = run_capture(capsys, ["verify", "--suite", suite])
        assert code == 0
        assert out.strip().startswith(f"{suite}: PASS")
        assert err == ""


@pytest.mark.parametrize("n", ["0", "-6"])
@pytest.mark.parametrize("tail", [["divisor", "--d", "1"], ["divisor", "--d", "2"],
                                  ["divisor", "--d", "6"], ["bounds", "--d", "2"],
                                  ["bounds"]])
def test_nonpositive_n_is_usage_error(capsys, n, tail):
    argv = [tail[0], "--n", n, "--q", "1/2"] + tail[1:]
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert "n must be positive" in err


def test_asym_signed_closed_is_usage_error(capsys):
    argv = ["asym", "--n", "100", "--q", "0.5", "--signed", "--formula", "closed"]
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert "--formula closed" in err


def test_exponent_budget_counts_bits(capsys):
    # q = 10^-30 has a 99-bit denominator: 3000 * 99 bits pass 2 * 10^5
    argv = ["divisor", "--n", "3000", "--d", "1", "--q", "1/" + "1" + "0" * 30]
    code, out, err = run_capture(capsys, argv)
    assert code == 3 and out == ""
    assert "exponent 3000 of 99 bits each (budget 200000)" in err
