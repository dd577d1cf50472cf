"""CLI behavior: formats, exit codes, determinism."""

import json
import re
import sys
from fractions import Fraction

import pytest

from trigint import cos_moment
from trigint.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_exact_format(self, capsys):
        code, out = run(capsys, "eval", "--family", "c", "--n", "2", "--p", "1")
        assert code == 0
        assert out.strip() == "π^2/16 - 1/4"

    def test_latex_format(self, capsys):
        code, out = run(capsys, "eval", "--family", "c", "--n", "2", "--p", "1",
                        "--format", "latex")
        assert code == 0
        assert "\\frac" in out and "\\pi" in out

    def test_float_format(self, capsys):
        code, out = run(capsys, "eval", "--family", "c", "--n", "2", "--p", "1",
                        "--format", "float")
        assert code == 0
        assert out.strip().startswith("0.3668502750680849")

    def test_json_format(self, capsys):
        code, out = run(capsys, "eval", "--family", "s", "--n", "1", "--p", "1",
                        "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["integral"] == "s(1,1)"
        assert payload["exact"] == {"pi_coeffs": ["1"]}
        assert payload["verified"] is None

    def test_verified_eval(self, capsys):
        code, out = run(capsys, "eval", "--family", "c", "--n", "3", "--p", "2",
                        "--format", "json", "--verify")
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_determinism(self, capsys):
        _, out1 = run(capsys, "eval", "--family", "c", "--n", "4", "--p", "3",
                      "--format", "json")
        _, out2 = run(capsys, "eval", "--family", "c", "--n", "4", "--p", "3",
                      "--format", "json")
        assert out1 == out2


class TestHugeCoefficients:
    """c(1, 1700) has coefficients past CPython's 4300-digit int-to-str limit."""

    @staticmethod
    def parse_exact(text):
        # "a π^k/d - ... + c" -> coefficient tuple, index = power of π
        pieces = re.split(r" ([-+]) ", text)
        signs = ["-" if pieces[0].startswith("-") else "+"] + pieces[1::2]
        coeffs = {}
        for sign, term in zip(signs, pieces[0::2]):
            num, pi, power, den = re.fullmatch(r"-?(\d*)(π(?:\^(\d+))?)?(?:/(\d+))?", term).groups()
            k = int(power) if power else (1 if pi else 0)
            coeffs[k] = Fraction(int(num or 1), int(den or 1)) * (-1 if sign == "-" else 1)
        return tuple(coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1))

    @pytest.mark.parametrize("fmt", ["exact", "latex", "json"])
    def test_text_formats_exit_zero(self, capsys, fmt):
        limit = sys.get_int_max_str_digits()
        code, out = run(capsys, "eval", "--family", "c", "--n", "1", "--p", "1700", "--format", fmt)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        assert len(out) > limit

    def test_exact_text_round_trips(self, capsys):
        code, out = run(capsys, "eval", "--family", "c", "--n", "1", "--p", "1700")
        assert code == 0
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert self.parse_exact(out.strip()) == cos_moment(1, 1700).coeffs
            assert self.parse_exact(str(cos_moment(4, 5))) == cos_moment(4, 5).coeffs
        finally:
            sys.set_int_max_str_digits(limit)

    def test_table_entry(self, capsys):
        code, out = run(capsys, "table", "--gr", "3.761.11", "--range", "1700..1700")
        assert code == 0
        assert out.count("\n") == 3


class TestHalfline:
    def test_float(self, capsys):
        code, out = run(capsys, "halfline", "--kind", "cos", "--n", "0", "--p", "1/2")
        assert code == 0
        assert out.strip().startswith("1.2533141373")

    def test_json(self, capsys):
        code, out = run(capsys, "halfline", "--kind", "sin", "--n", "1", "--p", "1/4",
                        "--b", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"] == {"kind": "sin", "n": 1, "p": "1/4", "b": 0.5}
        assert payload["exact"]["gamma_arg"] == "3/4"

    def test_verify_flag(self, capsys):
        code, out = run(capsys, "halfline", "--kind", "cos", "--n", "0", "--p", "1/2",
                        "--format", "json", "--verify")
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_bad_rational(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["halfline", "--kind", "cos", "--n", "0", "--p", "half"])
        assert err.value.code == 2

    @pytest.mark.parametrize("b", ["nan", "inf", "-inf", "half"])
    def test_bad_shift(self, capsys, b):
        with pytest.raises(SystemExit) as err:
            main(["halfline", "--kind", "cos", "--n", "0", "--p", "1/2", f"--b={b}"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage:") and "--b" in captured.err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--family", "c", "--n", "1", "--p", "1", "--bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag", ["--n", "--p"])
    def test_non_integer_index(self, capsys, flag):
        args = {"--n": "1", "--p": "1", flag: "x"}
        with pytest.raises(SystemExit) as err:
            main(["eval", "--family", "c", *(t for kv in args.items() for t in kv)])
        assert err.value.code == 2
        assert f"argument {flag}: not an integer: 'x'" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_env_digits_validation(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIG_ENGINE_DIGITS", "many")
        with pytest.raises(SystemExit):
            main(["eval", "--family", "c", "--n", "1", "--p", "0"])

    def test_env_digits_used(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIG_ENGINE_DIGITS", "35")
        code, out = run(capsys, "eval", "--family", "c", "--n", "0", "--p", "1",
                        "--format", "float")
        assert code == 0
        digits = len(out.strip().replace(".", "").lstrip("0"))
        assert digits >= 33


class TestIdentities:
    def test_all_pass(self, capsys):
        code, out = run(capsys, "identities", "--check", "wallis", "--max-n", "30")
        assert code == 0
        assert "failed=0" in out

    def test_star_routes(self, capsys):
        code, out = run(capsys, "identities", "--check", "star", "--max-n", "4")
        assert code == 0


class TestVerify:
    def test_complete_small(self, capsys):
        code, out = run(capsys, "verify", "--family", "complete",
                        "--max-n", "3", "--max-p", "3")
        assert code == 0
        assert "failed=0" in out

    def test_forced_failure_exits_one(self, capsys):
        code, out = run(capsys, "verify", "--family", "complete",
                        "--max-n", "2", "--max-p", "2", "--tol", "1e-30")
        assert code == 1
        assert "FAIL" in out

    def test_halfline_tolerance_reaches_the_oracle(self, capsys):
        # at the oracle's default 1e-6, 9 of these 48 cases missed 1e-10
        code, out = run(capsys, "verify", "--family", "halfline", "--tol", "1e-10")
        assert code == 0
        assert "failed=0" in out

    def test_unresolvable_tolerance_exits_two(self, capsys):
        code = main(["verify", "--family", "halfline", "--tol", "1e-12"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("trigint verify: error: tolerance must be at least")

    def test_json_output(self, capsys):
        code, out = run(capsys, "verify", "--family", "complete",
                        "--max-n", "2", "--max-p", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 0


class TestTable:
    def test_wallis_entry_md(self, capsys):
        code, out = run(capsys, "table", "--gr", "3.621.3", "--range", "0..3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("| entry |")
        assert len(lines) == 6  # header, separator, 4 rows
        assert "π/4" in out  # n = 1 row

    def test_halfline_entry_json(self, capsys):
        code, out = run(capsys, "table", "--gr", "3.822.2", "--range", "0..2",
                        "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert rows[0]["value"].startswith("1.2533141373")

    def test_determinism(self, capsys):
        _, out1 = run(capsys, "table", "--gr", "3.761.11", "--range", "0..5")
        _, out2 = run(capsys, "table", "--gr", "3.761.11", "--range", "0..5")
        assert out1 == out2
