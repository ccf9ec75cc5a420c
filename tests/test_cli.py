"""End-to-end tests of the command-line interface (in-process main())."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import mpmath
import pytest

from hypersum.cli import GRID_SCHEMA, OUTPUT_SCHEMA, main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def assert_one_line_error(capsys, code, prefix="hypersum: error:"):
    """The documented usage failure: exit 1, nothing on stdout and one
    line on stderr that starts with ``prefix``, which is returned."""
    captured = capsys.readouterr()
    assert code == 1
    assert not captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    return lines[0]


class TestEval:
    def test_ramanujan_exact(self, capsys):
        code, rec = run(capsys, ["eval", "ramanujan", "--alpha=-2",
                                 "--beta=1/2", "--m=1/3", "--z=4",
                                 "--mode=exact"])
        assert code == 0
        assert rec["result"]["exact"] == "-5/36"
        assert rec["result"]["classification"] == "terminating"
        jsonschema.validate(rec, OUTPUT_SCHEMA)

    def test_ramanujan_alpha_zero(self, capsys):
        code, rec = run(capsys, ["eval", "ramanujan", "--alpha=0",
                                 "--beta=2/3", "--m=1/5", "--z=1"])
        assert code == 0
        assert rec["result"]["exact"] == "1"

    def test_pfq_gauss_spot(self, capsys):
        # 2F1(1,1;3;1) = 2: exact summation is impossible here, the float
        # engine answers within tolerance
        code, rec = run(capsys, ["eval", "pfq", "--num=1,1", "--den=3"])
        assert code == 0
        assert abs(float(rec["result"]["decimal"]) - 2) < 1e-10
        jsonschema.validate(rec, OUTPUT_SCHEMA)

    def test_pfq_p_le_q_prints_every_digit_right(self, capsys):
        # 1F1(1/3; 5/2; 1) goes to mp.hyper, which reports no term count.
        # The value lies in [1, 10), so the last printed digit is worth
        # 10^-d with d digits after the point; a 1024-bit value correctly
        # rounded to them is off by at most half of that, plus 2^-1024.
        code, rec = run(capsys, ["eval", "pfq", "--num=1/3", "--den=5/2",
                                 "--precision=1024"])
        assert code == 0
        assert rec["result"]["terms_used"] is None
        jsonschema.validate(rec, OUTPUT_SCHEMA)
        decimal = rec["result"]["decimal"]
        d = len(decimal.split(".")[1])
        assert d >= 300
        with mpmath.workprec(2100):
            ref = mpmath.hyp1f1(mpmath.mpf(1) / 3, mpmath.mpf(5) / 2, 1)
            err = abs(mpmath.mpf(decimal) - ref)
            assert err <= mpmath.mpf(10) ** -d / 2 + ref * mpmath.mpf(2) ** -1024

    def test_exact_rational_roundtrip(self, capsys):
        code, rec = run(capsys, ["eval", "ramanujan", "--alpha=-3",
                                 "--beta=7/2", "--m=5/4", "--z=0"])
        assert code == 0
        assert rec["result"]["exact"] == "45/64"

    def test_decimal_parses_as_exact_rational(self, capsys):
        # 0.25 in exact mode must behave as 1/4, not as a binary float
        code, rec = run(capsys, ["eval", "ramanujan", "--alpha=-1",
                                 "--beta=0.25", "--m=0.5", "--z=2"])
        assert code == 0
        assert rec["result"]["exact"] == "-1/4"

    def test_float_mode_complex_z(self, capsys):
        code, rec = run(capsys, ["eval", "ramanujan", "--alpha=-1",
                                 "--beta=5", "--m=2", "--z=1+1j",
                                 "--mode=float"])
        assert code == 0
        assert abs(float(rec["result"]["decimal"]) - 3) < 1e-10

    def test_divergent_exits_2(self, capsys):
        code, rec = run(capsys, ["eval", "pfq", "--num=3,2", "--den=1"])
        assert code == 2
        assert "error" in rec
        assert rec["params"] == {"num": "3,2", "den": "1", "mode": "exact",
                                 "precision": 256}
        assert rec["timing_s"] > 0
        jsonschema.validate(rec, OUTPUT_SCHEMA)

    @pytest.mark.parametrize("argv, message", [
        (["ramanujan", "--alpha=1/2", "--beta=1/3", "--m=1/5", "--z=-1/2"],
         "no asymptotic tail"),
        (["pfq", "--den=1/2", "--max-terms=3"], "within 3 terms"),
    ])
    def test_refusal_exits_2(self, capsys, argv, message):
        code, rec = run(capsys, ["eval", *argv])
        assert code == 2
        assert message in rec["error"]
        jsonschema.validate(rec, OUTPUT_SCHEMA)

    def test_pole_exits_3(self, capsys):
        code, rec = run(capsys, ["eval", "ramanujan", "--alpha=0.7",
                                 "--beta=-3.5", "--m=0.3", "--z=0.5",
                                 "--mode=float"])
        assert code == 3
        assert rec["params"] == {"alpha": "0.7", "beta": "-3.5", "m": "0.3",
                                 "z": "0.5", "mode": "float",
                                 "precision": 256}
        assert rec["timing_s"] > 0
        jsonschema.validate(rec, OUTPUT_SCHEMA)

    @pytest.mark.parametrize("value", ["inf", "nan", "inf+1j"])
    def test_float_mode_non_finite_exits_1(self, capsys, value):
        code = main(["eval", "ramanujan", "--alpha=-2", f"--beta={value}",
                     "--m=0.5", "--z=1", "--mode=float"])
        assert "--beta" in assert_one_line_error(capsys, code)

    def test_float_mode_theorem_is_right_at_53_bits(self, capsys):
        # the alternating terms cancel to 9 digits; the sum is exact on the
        # float inputs and rounded once, so the verdict is a match
        code, rec = run(capsys, ["verify", "theorem", "--mode=float", "--k=8",
                                 "--beta=0.5", "--m=0.3333333333333333",
                                 "--z=3.5", "--precision=53"])
        assert code == 0
        assert rec["verdict"] == "WithinTolerance"
        assert "exact" not in rec["report"]["lhs"]

    def test_malformed_rational_exits_1(self, capsys):
        code = main(["eval", "ramanujan", "--alpha=-2", "--beta=xyz",
                     "--m=1/3", "--z=4"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--beta" in err

    def test_missing_flag_exits_1(self, capsys):
        code = main(["eval", "ramanujan", "--alpha=-2"])
        assert code == 1

    def test_env_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERSUM_PRECISION", "64")
        code, rec = run(capsys, ["eval", "ramanujan", "--alpha=-1",
                                 "--beta=5", "--m=2", "--z=0"])
        assert code == 0
        assert rec["params"]["precision"] == 64

    def test_precision_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERSUM_PRECISION", "64")
        code, rec = run(capsys, ["eval", "ramanujan", "--alpha=-1",
                                 "--beta=5", "--m=2", "--z=0",
                                 "--precision=128"])
        assert rec["params"]["precision"] == 128


class TestVerify:
    def test_theorem_exact_match(self, capsys):
        code, rec = run(capsys, ["verify", "theorem", "--k=2", "--beta=1/2",
                                 "--m=1/3", "--z=4"])
        assert code == 0
        assert rec["verdict"] == "ExactMatch"
        assert rec["report"]["lhs"]["exact"] == "-5/36"
        jsonschema.validate(rec, OUTPUT_SCHEMA)

    def test_inner_sum(self, capsys):
        code, rec = run(capsys, ["verify", "inner-sum", "--m=1/3", "--n=1",
                                 "--r=2"])
        assert code == 0
        assert rec["verdict"] == "ExactMatch"
        assert rec["report"]["lhs"]["exact"] == "0"

    def test_inner_sum_r0(self, capsys):
        code, rec = run(capsys, ["verify", "inner-sum", "--m=1/3", "--n=2",
                                 "--r=0"])
        assert code == 0
        assert rec["report"]["rhs"]["exact"] == "1"

    def test_finite_diff(self, capsys):
        code, rec = run(capsys, ["verify", "finite-diff", "--m=1/2", "--n=2",
                                 "--r=3"])
        assert code == 0
        assert rec["verdict"] == "ExactMatch"

    @pytest.mark.parametrize("argv", [
        ["verify", "inner-sum", "--mode=float", "--m=0.3", "--n=3", "--r=30"],
        ["verify", "finite-diff", "--mode=float", "--m=0.3", "--n=2", "--r=12"],
    ])
    def test_float_alternating_sum_does_not_cancel(self, capsys, argv):
        code, rec = run(capsys, argv)
        assert code == 0
        assert rec["verdict"] == "WithinTolerance"
        assert rec["report"]["abs_diff"] == 0.0

    def test_askey_ismail_spot(self, capsys):
        code, rec = run(capsys, ["verify", "askey-ismail", "--num=1,1",
                                 "--den=3", "--k=1"])
        assert code == 0
        assert rec["verdict"] == "ExactMatch"
        assert rec["report"]["lhs"]["exact"] == "7/6"

    def test_askey_ismail_float_mode(self, capsys):
        # both sides come back at the working precision, so they multiply
        # and compare without a precision mix
        code, rec = run(capsys, ["verify", "askey-ismail", "--mode=float",
                                 "--num=0.5,1", "--den=2.5", "--k=1"])
        assert code == 0
        assert rec["verdict"] == "WithinTolerance"

    def test_counterexample_expected_mismatch(self, capsys):
        code, rec = run(capsys, ["verify", "counterexample", "--alpha=1/2",
                                 "--beta=1/2"])
        assert code == 0
        assert rec["verdict"] == "Mismatch"
        assert abs(float(rec["report"]["lhs"]["decimal"]) - 1.504505556) < 1e-8
        jsonschema.validate(rec, OUTPUT_SCHEMA)

    def test_counterexample_integer_alpha_is_unexpected(self, capsys):
        # negative-integer alpha makes both sides vanish: the Mismatch the
        # command exists to demonstrate does not happen, exit 4
        code, rec = run(capsys, ["verify", "counterexample", "--alpha=-1",
                                 "--beta=1/2"])
        assert code == 4
        assert rec["verdict"] == "ExactMatch"

    def test_prefactor_pole_exits_3(self, capsys):
        # d-a-c = 0 kills the rhs prefactor denominator while the lhs
        # series itself terminates harmlessly
        code, rec = run(capsys, ["verify", "askey-ismail", "--num=2,-1",
                                 "--den=1", "--k=2"])
        assert code == 3
        assert "error" in rec

    @pytest.mark.parametrize("argv", [
        ["verify", "inner-sum", "--m=1/3", "--n=2", "--r=-1"],
        ["verify", "finite-diff", "--m=1/3", "--n=2", "--r=0"],
        ["verify", "askey-ismail", "--num=1/2,1/3", "--den=5/2", "--k=-1"],
    ])
    def test_out_of_range_integer_exits_1(self, capsys, argv):
        assert_one_line_error(capsys, main(argv), "hypersum: invalid parameters:")

    @pytest.mark.parametrize("argv", [
        ["verify", "askey-ismail", "--num=1/2,1/3", "--den=5/2",
         "--k=100000000000000000000"],
        ["verify", "theorem", "--k=100000000000000000000", "--beta=1/2",
         "--m=1/3", "--z=1"],
        ["verify", "inner-sum", "--m=1/3", "--n=100000000000000000000", "--r=2"],
        ["eval", "ramanujan", "--alpha=-100000000000000000000", "--beta=1/2",
         "--m=1/3", "--z=1/2"],
        ["eval", "pfq", "--num=-100000000000000000000", "--den=5/2"],
        ["eval", "ramanujan", "--alpha=1/2", "--beta=1/2", "--m=1/3",
         "--z=100000000000000000000"],
    ])
    def test_count_above_max_terms_exits_1_quickly(self, argv):
        # a k, n, r or integer z above max_terms is refused before any term
        # is summed; these ended in OverflowError or ran for minutes
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "hypersum.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 1
        assert not proc.stdout
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("hypersum: invalid parameters:")
        assert "max_terms = 100000" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["verify", "inner-sum", "--m=1/3", "--n=100000", "--r=1000"],
        ["verify", "theorem", "--k=100000", "--beta=1/2", "--m=1/3", "--z=7/2"],
    ])
    def test_factor_work_above_budget_exits_1_quickly(self, argv):
        # each count is within max_terms, but the Pochhammer products would
        # take about (n r)^2 and k^3 / 3 of factor work, far above
        # max_terms^2;
        # both ran without end before the sum counted its work
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "hypersum.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 1
        assert not proc.stdout
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("hypersum: invalid parameters:")
        assert "max_terms^2 = 10000000000" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem", "--k=1500", "--beta=1/2", "--m=1/3", "--z=7/2"],
        ["eval", "ramanujan", "--alpha=-2000", "--beta=1/2", "--m=1/3", "--z=7/2"],
    ])
    def test_exact_value_past_4300_digits(self, argv):
        # the exact rationals here have numerators of more than 4300 digits,
        # which str() refuses by default from Python 3.11 on
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "hypersum.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(proc.stdout)
        jsonschema.validate(rec, OUTPUT_SCHEMA)
        exact = (rec.get("result") or rec["report"]["lhs"])["exact"]
        assert len(exact) > 4300

    def test_missing_flags_exit_1(self, capsys):
        assert main(["verify", "theorem", "--k=2"]) == 1
        assert main(["verify", "askey-ismail", "--num=1", "--den=3",
                     "--k=1"]) == 1


class TestSweep:
    def write_grid(self, tmp_path, spec):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec))
        jsonschema.validate(spec, GRID_SCHEMA)
        return str(path)

    def test_terminating_grid(self, capsys, tmp_path):
        grid = self.write_grid(tmp_path, {
            "points": [{"k": 2, "beta": "1/2", "m": "1/3", "z": 4}],
            "product": {"k": [0, 1], "beta": ["2/5"], "m": ["-1/4"],
                        "z": [0, 1]},
        })
        out = str(tmp_path / "out.csv")
        code, rec = run(capsys, ["sweep", "--grid", grid, "--out", out])
        assert code == 0
        assert rec["summary"]["ExactMatch"] == 5
        assert rec["summary"]["unexpected"] == 0
        jsonschema.validate(rec, OUTPUT_SCHEMA)
        rows = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert rows[0] == ("grid_index,alpha,beta,m,z,lhs,rhs,rel_diff,"
                           "verdict")
        assert len(rows) == 6
        assert rows[1].endswith("ExactMatch")
        assert "-5/36" in rows[1]

    def test_nonterminating_mismatch_is_expected(self, capsys, tmp_path):
        grid = self.write_grid(tmp_path, {
            "points": [{"alpha": "1/2", "beta": "1/2", "m": "2", "z": 1}]})
        out = str(tmp_path / "out.csv")
        code, rec = run(capsys, ["sweep", "--grid", grid, "--out", out])
        assert code == 0
        assert rec["summary"]["Mismatch"] == 1

    def test_float_mode_integer_alpha_terminates(self, capsys, tmp_path):
        # "-2" parses as the float -2.0, which still makes S terminate
        grid = self.write_grid(tmp_path, {
            "points": [{"alpha": "-2", "beta": "0.5", "m": "0.25", "z": "1"}]})
        code, rec = run(capsys, ["sweep", "--grid", grid, "--out",
                                 str(tmp_path / "out.csv"), "--mode=float"])
        assert code == 0
        assert rec["summary"]["WithinTolerance"] == 1
        assert rec["summary"]["unexpected"] == 0

    def test_sqrtpi_multiple_cell(self, capsys, tmp_path):
        # the closed form Gamma(1)/Gamma(3/2) is exactly 2/sqrt(pi)
        grid = self.write_grid(tmp_path, {
            "points": [{"alpha": "1/2", "beta": "1/2", "m": "1/2", "z": 0}]})
        out = tmp_path / "out.csv"
        code, rec = run(capsys, ["sweep", "--grid", grid, "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[1].split(",")[6] == "2*sqrtpi^-1"

    def test_empty_grid(self, capsys, tmp_path):
        grid = self.write_grid(tmp_path, {"points": []})
        out = str(tmp_path / "out.csv")
        code, rec = run(capsys, ["sweep", "--grid", grid, "--out", out])
        assert code == 0
        text = (tmp_path / "out.csv").read_text()
        assert text.startswith("grid_index,") and len(text.splitlines()) == 1

    def test_unreadable_grid_exits_1(self, capsys, tmp_path):
        out = str(tmp_path / "out.csv")
        assert main(["sweep", "--grid", str(tmp_path / "nope.json"),
                     "--out", out]) == 1

    def test_float_mode_non_finite_value_exits_1(self, capsys, tmp_path):
        grid = self.write_grid(tmp_path, {
            "points": [{"k": 2, "beta": float("inf"), "m": 0.5, "z": 1}]})
        code = main(["sweep", "--grid", grid, "--out",
                     str(tmp_path / "out.csv"), "--mode=float"])
        assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("jobs", ["0", "-3", "2"])
    def test_jobs_below_one_exits_1(self, capsys, tmp_path, jobs):
        grid = self.write_grid(tmp_path, {
            "points": [{"k": 1, "beta": "1/2", "m": "1/3", "z": 1}]})
        out = tmp_path / "out.csv"
        code = main(["sweep", "--grid", grid, "--out", str(out),
                     "--jobs", jobs])
        assert "--jobs" in assert_one_line_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("k", ["abc", 2.5, True])
    def test_non_integer_k_exits_1(self, capsys, tmp_path, k):
        # written without write_grid: 2.5 and true do not fit GRID_SCHEMA
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"points": [{"k": k, "beta": "1/2", "m": "1/3", "z": 1}]}))
        out = tmp_path / "out.csv"
        code = main(["sweep", "--grid", str(grid), "--out", str(out)])
        assert "grid value for k" in assert_one_line_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("spec", [
        {"points": "abc"},
        {"points": [1, 2]},
        {"product": {"k": 3}},
        {"product": [1]},
    ])
    def test_malformed_grid_shape_exits_1(self, capsys, tmp_path, spec):
        # written without write_grid: none of these fit GRID_SCHEMA
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(spec))
        out = tmp_path / "out.csv"
        code = main(["sweep", "--grid", str(grid), "--out", str(out)])
        assert "GRID_SCHEMA" in assert_one_line_error(capsys, code)
        assert not out.exists()

    def test_integer_string_k(self, capsys, tmp_path):
        grid = self.write_grid(tmp_path, {
            "points": [{"k": "2", "beta": "1/2", "m": "1/3", "z": 4}]})
        out = tmp_path / "out.csv"
        code, rec = run(capsys, ["sweep", "--grid", grid, "--out", str(out)])
        assert code == 0
        assert rec["summary"]["ExactMatch"] == 1
        assert "-5/36" in out.read_text()

    def test_malformed_point_is_skipped(self, capsys, tmp_path):
        grid = self.write_grid(tmp_path, {"points": [{"beta": "1/2"}]})
        out = str(tmp_path / "out.csv")
        code, rec = run(capsys, ["sweep", "--grid", grid, "--out", out])
        assert code == 0
        assert rec["summary"]["PoleSkipped"] == 1


class TestUsage:
    @pytest.mark.parametrize("argv, message", [
        (["eval", "ramanujan", "--beta=1", "--m=1", "--z=1"],
         "eval ramanujan requires --alpha"),
        (["verify", "theorem", "--k=2"], "verify theorem requires --beta"),
        (["verify", "inner-sum", "--m=1", "--n=2"],
         "verify inner-sum requires --r"),
        (["verify", "finite-diff", "--n=2", "--r=1"],
         "verify finite-diff requires --m"),
        (["verify", "counterexample", "--alpha=1/2"],
         "verify counterexample requires --beta"),
        (["verify", "askey-ismail", "--num=1,2", "--den=3"],
         "verify askey-ismail requires --num=a,c --den=d --k"),
    ])
    def test_missing_flag_message(self, capsys, argv, message):
        line = assert_one_line_error(capsys, main(argv))
        assert line == f"hypersum: error: {message}"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_int_flag(self, capsys):
        assert main(["verify", "theorem", "--k=notanint", "--beta=1",
                     "--m=1", "--z=0"]) == 1

    def test_no_command(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("flag", ["--precision=10", "--max-terms=-1",
                                      "--max-terms=0", "--rel-tol=0",
                                      "--abs-tol=0"])
    def test_invalid_context_flag_exits_1(self, capsys, flag):
        # zero is rejected like any other invalid value, never swapped for
        # the default
        code = main(["eval", "pfq", "--num=1/3,1/4", "--den=25/12", flag])
        assert_one_line_error(capsys, code)

    def test_non_integer_env_precision_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERSUM_PRECISION", "abc")
        code = main(["eval", "pfq", "--num=1/3,1/4", "--den=25/12"])
        assert "HYPERSUM_PRECISION" in assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("target, argv", [
        ("eval_at_1", ["eval", "pfq", "--num=1/2", "--den=1/3,1/4"]),
        ("s_direct", ["eval", "ramanujan", "--alpha=1/2", "--beta=1", "--m=1/2",
                      "--z=1/2"]),
        ("counterexample_eq9", ["verify", "counterexample", "--alpha=1/2",
                                "--beta=1/3"]),
    ])
    def test_out_of_memory_exits_1(self, capsys, monkeypatch, target, argv):
        # an absurd --precision runs mpmath out of memory; the library call
        # raises here instead of allocating for real
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(f"hypersum.cli.{target}", exhausted)
        code = main(argv + ["--precision=10000000000000"])
        assert "out of memory" in assert_one_line_error(capsys, code)


def _readme_examples():
    """Every ``hypersum ...`` line of README.md's sh blocks, and the README's
    own sweep grid (its json block with a "points" key)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```(\w*)\n(.*?)```", text, re.S)
    commands = [line for lang, body in blocks if lang == "sh"
                for line in body.splitlines() if line.startswith("hypersum ")]
    grid = next(json.loads(body) for lang, body in blocks
                if lang == "json" and '"points"' in body)
    return commands, grid


_README_COMMANDS, _README_GRID = _readme_examples()


@pytest.mark.parametrize("command", _README_COMMANDS)
def test_readme_example_runs(capsys, tmp_path, command):
    argv = shlex.split(command)[1:]
    if argv[0] == "sweep":
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(_README_GRID))
        argv = [str(grid) if a == "grid.json" else
                str(tmp_path / a) if a == "results.csv" else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    jsonschema.validate(json.loads(captured.out), OUTPUT_SCHEMA)


def test_closed_stdout_exits_1_quietly():
    # the reader is gone before the record is written, as in `... | head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hypersum.cli", "eval", "ramanujan",
             "--alpha=1/2", "--beta=1/3", "--m=1/5", "--z=0"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
