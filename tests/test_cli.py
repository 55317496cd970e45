import csv
import io
import json
from fractions import Fraction

import pytest

from circsing import asym, binomstats, cli

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
        assert row.approx == 0.0 and row.ratio is None

    def test_digits_beyond_str_limit(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table", "--n-range", "9029:9029", "--q", "1/3"])
        assert code == 0
        cells = out.splitlines()[1].split(",")
        value = Fraction(1 + 2 ** 9029, 3 ** 9029)
        assert cells[1] == oracles.decimal_digits(value.numerator)
        assert cells[2] == oracles.decimal_digits(value.denominator)
        assert cells[5] == ""  # the approximation underflows to 0.0

    def test_range_parsing(self):
        assert cli.parse_n_range("4:8:2") == [4, 6, 8]
        assert cli.parse_n_range("4:9:2") == [4, 6, 8]  # end not hit
        assert cli.parse_n_range("3:5") == [3, 4, 5]
        with pytest.raises(ValueError):
            cli.parse_n_range("5")
        with pytest.raises(ValueError):
            cli.parse_n_range("8:4")


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


class TestBudgetsAndErrors:
    def test_enumeration_budget_flag(self, capsys):
        code, _, err = run_capture(
            capsys, ["divisor", "--n", "24", "--d", "12", "--q", "1/2",
                     "--enum-budget", "10"])
        assert code == 3
        assert "candidate" in err

    def test_bounds_exponent_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        code, _, err = run_capture(capsys, ["bounds", "--n", "22", "--q", "1/3"])
        assert code == 3
        assert "exponent" in err

    def test_shards_above_samples(self, capsys):
        code, _, err = run_capture(
            capsys, ["mc", "--n", "4", "--q", "1/2", "--samples", "3",
                     "--shards", "4"])
        assert code == 2
        assert "shards" in err

    def test_enumeration_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CIRCSING_ENUM_BUDGET", "10")
        code, _, err = run_capture(
            capsys, ["divisor", "--n", "24", "--d", "12", "--q", "1/2"])
        assert code == 3

    def test_usage_error(self, capsys):
        assert cli.run(["exact", "--n", "4"]) == 2  # missing --q
        assert cli.run(["nonsense"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0


class TestVerifyCommand:
    def test_algebra_suite_passes(self, capsys):
        code, out, err = run_capture(capsys, ["verify", "--suite", "algebra"])
        assert code == 0
        assert out.strip().startswith("algebra: PASS")
        assert err == ""
