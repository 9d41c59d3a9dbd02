import dataclasses
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

from rmrll import cli, gf2
from rmrll.cli import lemma_checks, main
from rmrll.coset import coset_rate_lower_bound
from rmrll.gf2 import BinaryMatrix
from rmrll.rll import RllSpec, noiseless_capacity
from rmrll.rm import complement_basis
from rmrll.subcodes import RllSubcode

from oracles import grid_bisection_crossover


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


def body_lines(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


class TestParsing:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["no-such-command"]) == 2
        err = capsys.readouterr().err
        assert "argument command: invalid choice: 'no-such-command'" in err

    def test_missing_required_option(self, tmp_path, capsys):
        code, _ = run(tmp_path, "rate-curves")
        assert code == 2
        assert "missing required option --d" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["rate-curves", "--help"]) == 0
        capsys.readouterr()

    def test_stdout_default(self, capsys):
        assert main(["crossover", "--d", "1"]) == 0
        out = capsys.readouterr().out
        assert "capacity_crossover=0.761260" in out

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["rate-curves", "--d", "1", "--out", str(out)]) == 2
        assert "error: cannot write output:" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_value_error_is_not_usage_error(self, monkeypatch):
        # only configuration errors map to exit 2; a fault inside a
        # runner propagates instead of posing as a bad configuration
        def broken(spec):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "noiseless_capacity", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["rate-curves", "--d", "1"])


COSET_ARGV = [
    "coset-trial",
    "--m", "5", "--r", "2", "--d", "1", "--part-exponent", "2",
    "--channel", "bsc", "--param", "0.05", "--trials", "20", "--seed", "77",
]

# main parses spelled-out flags from the command table and leaves every
# other argv to argparse; status, stdout and stderr must read exactly as
# with argparse alone.  Each row reaches one side of that split.
PARSER_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "coset-trial"],
    ["bogus"],
    ["coset", "--m", "6"],
    *([name, "-h"] for name in cli.COMMANDS),
    COSET_ARGV,
    ["verify-lemmas", "--m-max", "4"],
    [*COSET_ARGV, "extra"],
    ["coset-trial", "--m", "x"],
    ["coset-trial", "--bogus", "1"],
    ["crossover", "--tol"],
    ["crossover", "--d", "1", "--tol", "1e-6"],
    ["verify-lemmas", "--m-m", "3"],
    ["--", "crossover", "--d", "1"],
    [*COSET_ARGV, "--out", "-"],
    [*COSET_ARGV, "--param", "-0.5"],
    [*COSET_ARGV, "--trial", "2"],
    ["coset-trial", "--m=6"],
    [*COSET_ARGV, "--seed", "78"],
    [*COSET_ARGV[:5], "-h"],
    [*COSET_ARGV, "--param", "nan"],
    [*COSET_ARGV, "--trials", "0"],
]

README_ARGV = [
    "coset-trial",
    "--m", "6", "--r", "2", "--d", "1", "--part-exponent", "3", "--inner-order", "2",
    "--channel", "bec", "--param", "0.05", "--trials", "10000", "--seed", "7",
]


class TestParserBuild:
    @pytest.mark.parametrize("argv", PARSER_ARGV, ids=lambda a: " ".join(a) or "no-args")
    def test_same_as_full_parser(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        status = main(list(argv))
        got = status, *capsys.readouterr()
        monkeypatch.setattr(cli, "_parse_spelled_out", lambda argv: None)
        status = main(list(argv))
        assert got == (status, *capsys.readouterr())

    @pytest.mark.parametrize(
        "argv, params",
        [
            (
                README_ARGV,
                {"m": 6, "r": 2, "d": 1, "part_exponent": 3, "inner_order": 2,
                 "channel": "bec", "param": 0.05, "trials": 10000, "seed": 7},
            ),
            (["verify-lemmas", "--m-max", "12"], {"m_max": 12}),
        ],
        ids=["readme-coset-trial", "verify-lemmas"],
    )
    def test_spelled_out_argv_builds_no_parser(self, argv, params, monkeypatch, capsys):
        # the benchmark's workloads call main with argv of this form
        def no_parser():
            raise AssertionError("argparse parser built")

        seen = []

        def record(p):
            seen.append(p)
            return [], 0

        name = argv[0]
        monkeypatch.setattr(cli, "_build_parser", no_parser)
        monkeypatch.setitem(cli.COMMANDS, name, dataclasses.replace(cli.COMMANDS[name], run=record))
        assert main(list(argv)) == 0
        assert seen == [params]
        assert capsys.readouterr().out.startswith(f"# command={name}\n")

    def test_module_entry_reads_sys_argv(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "rmrll", "crossover", "--d", "1"],
            env={**os.environ, "PYTHONPATH": str(src)},
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "capacity_crossover=0.761260" in done.stdout


class TestConfigFile:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=1\ngrid=0.1\n# a comment\n\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["rate-curves", "--config", str(cfg), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "# d=1" in text and "# grid=0.1" in text

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=1\ngrid=0.05\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(
            ["rate-curves", "--config", str(cfg), "--grid", "0.1", "--out", str(out)]
        ) == 0
        text = out.read_text(encoding="utf-8")
        assert "# grid=0.1" in text
        assert len(body_lines(text)) == 1 + 10  # header + ten capacity steps

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=1\nbogus=3\n", encoding="utf-8")
        assert main(["rate-curves", "--config", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d 1\n", encoding="utf-8")
        assert main(["rate-curves", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert main(["rate-curves", "--config", str(tmp_path / "nope.cfg")]) == 2
        capsys.readouterr()

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"d=1\n\xff\n")
        assert main(["rate-curves", "--config", str(cfg)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_bad_value_type_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=one\n", encoding="utf-8")
        assert main(["rate-curves", "--config", str(cfg)]) == 2
        capsys.readouterr()


# each single-option range of the command table
RANGES = {
    "d": (0, None), "m": (1, 14), "r": (0, None), "part_exponent": (1, None),
    "m_max": (1, 12), "param": (0, 1), "trials": (1, None), "samples": (1, None),
    "seed": (0, None),
}

# a valid configuration of each command, in which each bounded option is
# set past its bounds in turn
VALID_OPTIONS = {
    "rate-curves": {"d": "1", "part_exponent": "2"},
    "verify-lemmas": {"m_max": "2"},
    "subcode-oracle": {"m": "3", "r": "1", "d": "1"},
    "coset-trial": {
        "m": "5", "r": "2", "d": "1", "part_exponent": "2", "channel": "bsc",
        "param": "0.05", "trials": "20", "seed": "77",
    },
    "crossover": {"d": "1", "part_exponent": "2"},
    "perm-sweep": {"m": "4", "r": "1", "d": "1", "samples": "2", "seed": "1"},
}


def bound_violations():
    """A value one past each bound of each bounded option in the command
    table, NaN and inf for param, each with the stderr it must give."""
    for command, cmd in cli.COMMANDS.items():
        for o in cmd.opts:
            if not o.bounds:
                continue
            low, high = o.bounds
            cases = [(str(low - 1), f"at least {low}")]
            if high is not None:
                cases.append((str(high + 1), f"at most {high}"))
            if o.name == "param":
                cases += [("nan", f"at least {low}"), ("inf", f"at most {high}")]
            for value, side in cases:
                err = f"error: {o.name} must be {side}\n"
                yield pytest.param(command, o.name, value, err, id=f"{command}-{o.name}={value}")


class TestOptionBounds:
    def test_ranges_are_declared_in_the_table(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")
        for command, cmd in cli.COMMANDS.items():
            assert main([command, "-h"]) == 0
            help_text = capsys.readouterr().out
            for o in cmd.opts:
                assert o.bounds == RANGES.get(o.name, ())
                assert cli._range(o) in help_text

    @pytest.mark.parametrize("command, name, value, err", bound_violations())
    def test_every_route_rejects_a_value_past_a_bound(
        self, command, name, value, err, tmp_path, capsys
    ):
        # the spelled-out argv is parsed from the table unless its value
        # starts with '-', which leaves it to argparse like --flag=value
        flag = cli._flag(name)
        valid = VALID_OPTIONS[command]
        others = [x for key in valid if key != name for x in (cli._flag(key), valid[key])]
        spelled = [command, *others, flag, value]
        assert (cli._parse_spelled_out(spelled) is None) == value.startswith("-")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name}={value}\n", encoding="utf-8")
        assigned = [command, *others, f"{flag}={value}"]
        for argv in (spelled, assigned, [command, *others, "--config", str(cfg)]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", err)


class TestRateCurves:
    def test_endpoint_values(self, tmp_path):
        code, text = run(tmp_path, "rate-curves", "--d", "1", "--grid", "0.1")
        assert code == 0
        rows = body_lines(text)
        assert rows[0] == "capacity,subcode_bound,coset_bound,coset_averaging_bound"
        last = rows[-1].split(",")
        assert last[0] == "1.000000"
        assert last[1] == "0.500000"
        assert abs(float(last[2]) - 0.6942) < 1e-3
        row9 = rows[-2].split(",")
        assert row9[0] == "0.900000"
        assert abs(float(row9[2]) - 0.5568) < 1e-3
        assert float(row9[2]) > 0.45

    def test_six_decimal_formatting(self, tmp_path):
        _, text = run(tmp_path, "rate-curves", "--d", "2", "--grid", "0.05")
        for row in body_lines(text)[1:]:
            assert re.fullmatch(r"(\d+\.\d{6})(,\d+\.\d{6}){3}", row)

    def test_grid_validation(self, tmp_path, capsys):
        # outside (0, 0.1], or more rows than the cap: 1e-300 would build
        # 10**300 rows before printing one, and 1 / 5e-324 is inf
        for grid in ("0.5", "1e-7", "1e-300", "5e-324"):
            code, _ = run(tmp_path, "rate-curves", "--d", "1", "--grid", grid)
            assert code == 2
            err = capsys.readouterr().err
            assert "grid must lie in (0, 0.1] and give at most 1,000,000 rows" in err

    def test_streamed_rows_match_list_built_reference(self, capsys):
        # the rows as the command built them in one list before streaming
        spec = RllSpec(1)
        c0 = noiseless_capacity(spec)
        want = [
            "# command=rate-curves", "# d=1", "# grid=0.01", "# part_exponent=50", "# out=-",
            "capacity,subcode_bound,coset_bound,coset_averaging_bound",
        ]
        for k in range(1, 101):
            c = min(k * 0.01, 1.0)
            coset = coset_rate_lower_bound(c0, c, spec, 50)
            want.append(f"{c:.6f},{c / 2:.6f},{coset:.6f},{max(0.0, c0 + c - 1.0):.6f}")
        assert main(["rate-curves", "--d", "1", "--grid", "0.01"]) == 0
        assert capsys.readouterr().out == "\n".join(want) + "\n"

    def test_usage_errors_print_nothing(self, capsys):
        for argv in (["--grid", "1e-7"], ["--part-exponent", "0"], ["--d", "-1"]):
            assert main(["rate-curves", "--d", "1", *argv]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ")

    def test_large_gap_runs(self, tmp_path):
        code, text = run(tmp_path, "rate-curves", "--d", "5000", "--grid", "0.1")
        assert code == 0
        assert len(body_lines(text)) == 1 + 10

    def test_integers_beyond_float_range_run(self, tmp_path):
        # 10**400 converts to no float; 2**-1100 already rounds to 0.0
        code, text = run(tmp_path, "rate-curves", "--d", str(10**400), "--grid", "0.1")
        assert code == 0
        assert len(body_lines(text)) == 1 + 10
        argv = ["rate-curves", "--d", "1", "--grid", "0.1", "--part-exponent"]
        code, text = run(tmp_path, *argv, str(10**400))
        assert code == 0
        assert body_lines(text) == body_lines(run(tmp_path, *argv, "1100")[1])


    def test_huge_anchor_and_part_exponent_run(self, tmp_path):
        # z = 1081 and part exponent 2000: 2**-z and 2**-2000 both round
        # to 0.0, so the bound's denominator at C = 1 may not be formed
        # from them
        argv = ["--d", str(2**1080), "--part-exponent", "2000"]
        code, text = run(tmp_path, "rate-curves", *argv, "--grid", "0.1")
        assert code == 0
        assert len(body_lines(text)) == 1 + 10


class TestVerifyLemmas:
    def test_passes_small(self, tmp_path):
        code, text = run(tmp_path, "verify-lemmas", "--m-max", "3")
        assert code == 0
        assert "result=pass" in text
        assert "check=info-set-rank m=3 status=ok" in text
        assert "check=complement-span m=3 status=ok" in text
        assert "check=lex-run-count m=12 status=ok" in text
        assert "check=gray-run-bound m=12 status=ok" in text

    def assert_fails(self, tmp_path, check):
        code, text = run(tmp_path, "verify-lemmas", "--m-max", "2")
        assert code == 1
        assert f"check={check} m=2 status=FAIL" in text
        assert "status=FAIL" in text and "result=fail" in text

    def test_fault_injection_fails(self, tmp_path, monkeypatch):
        # one column gaining a 1 below its diagonal must fail the run
        honest = cli._down_set_heights

        def faulty(m, order):
            heights = honest(m, order)
            if m == 2:
                heights[order[1]] = 3  # position 1's column, highest 1 at row 2
            return heights

        monkeypatch.setattr(cli, "_down_set_heights", faulty)
        self.assert_fails(tmp_path, "info-set-rank")

    def test_points_out_of_weight_order_fail(self, tmp_path, monkeypatch):
        # (0, 2, 3, 1) is not in weight order at m=2; with the triangular
        # certificate forced to pass, only the weight check can see it
        honest = cli._weight_order
        monkeypatch.setattr(
            cli, "_weight_order", lambda m: np.array((0, 2, 3, 1)) if m == 2 else honest(m)
        )

        def triangular(m, order):  # column b's highest 1 at b's position
            heights = np.zeros(len(order), np.intp)
            heights[order] = np.arange(1, len(order) + 1)
            return heights

        monkeypatch.setattr(cli, "_down_set_heights", triangular)
        self.assert_fails(tmp_path, "info-set-rank")

    def test_complement_row_on_information_set_fails(self, tmp_path, monkeypatch):
        # a 1 at point 0 (weight 0) keeps the rows independent, so only
        # the containment test can see it
        honest = cli.complement_basis

        def faulty(m, r):
            rows = list(honest(m, r).row_values)
            if rows:
                rows[0] |= 1
            return BinaryMatrix(rows, 1 << m)

        monkeypatch.setattr(cli, "complement_basis", faulty)
        self.assert_fails(tmp_path, "complement-span")

    def test_overcounted_runs_fail(self, tmp_path, monkeypatch):
        honest = cli.bounded_run_counts

        def faulty(ordering):
            return tuple(runs + 1 for runs in honest(ordering))

        monkeypatch.setattr(cli, "bounded_run_counts", faulty)
        self.assert_fails(tmp_path, "lex-run-count")

    def test_overcounted_gray_runs_fail(self, tmp_path, monkeypatch):
        # the lex counts stay honest, so only the Gray bound can fail
        honest = cli.bounded_run_counts

        def faulty(ordering):
            runs = honest(ordering)
            if ordering.kind == "gray":
                return tuple(comb(ordering.m, r + 1) + 1 for r in range(len(runs)))
            return runs

        monkeypatch.setattr(cli, "bounded_run_counts", faulty)
        code, text = run(tmp_path, "verify-lemmas", "--m-max", "2")
        assert code == 1 and "result=fail" in text
        assert "check=gray-run-bound m=2 status=FAIL" in text
        assert "check=lex-run-count m=2 status=ok" in text

    def test_complement_ranks_match_each_basis(self):
        # the pivot certificate holds, and elimination finds the ranks it implies
        for m in range(1, 9):
            assert cli._complement_spans(m)
            for r in range(m + 1):
                k = sum(comb(m, i) for i in range(r + 1))
                assert complement_basis(m, r).rank() == (1 << m) - k

    def test_spans_certified_without_elimination(self, monkeypatch):
        def no_elimination(*args):
            raise AssertionError("_row_basis called")

        monkeypatch.setattr(gf2, "_row_basis", no_elimination)
        monkeypatch.setattr(cli, "_row_basis", no_elimination, raising=False)
        lines, ok = lemma_checks(8)
        assert ok and "check=complement-span m=8 status=ok" in lines

    def test_dependent_complement_row_fails(self, tmp_path, monkeypatch):
        # the top-degree row doubled into the one below it: every row still
        # vanishes below its degree, so only the ranks can see it
        honest = cli.complement_basis

        def faulty(m, r):
            rows = list(honest(m, r).row_values)
            if len(rows) > 1:
                rows[-2] = rows[-1]
            return BinaryMatrix(rows, 1 << m)

        monkeypatch.setattr(cli, "complement_basis", faulty)
        self.assert_fails(tmp_path, "complement-span")

    def test_full_report_pinned(self, capsys):
        assert main(["verify-lemmas", "--m-max", "12"]) == 0
        golden = Path(__file__).with_name("verify_lemmas_m12.txt")
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_each_m_work_done_once(self, monkeypatch):
        calls = {}
        honest_order = cli._weight_order
        honest_heights = cli._down_set_heights
        honest_complement = cli.complement_basis

        def weight_order(m):
            calls["weight_order"].append(m)
            return honest_order(m)

        def heights(m, order):
            calls["certificates"] += 1
            return honest_heights(m, order)

        def complement(m, r):
            calls["complement_basis"].append(m)
            return honest_complement(m, r)

        def no_run_profile(*args):
            raise AssertionError("run_profile called")

        monkeypatch.setattr(cli, "_weight_order", weight_order)
        monkeypatch.setattr(cli, "_down_set_heights", heights)
        monkeypatch.setattr(cli, "complement_basis", complement)
        monkeypatch.setattr(cli, "run_profile", no_run_profile)
        for m_max in (5, 10):
            calls.update(weight_order=[], certificates=0, complement_basis=[])
            lines, ok = lemma_checks(m_max)
            assert ok
            assert sorted(calls["weight_order"]) == list(range(1, m_max + 1))
            assert calls["certificates"] == m_max
            assert sorted(calls["complement_basis"]) == list(range(1, min(m_max, 8) + 1))

    def test_m_max_validation(self, tmp_path, capsys):
        cases = (("13", "m_max must be at most 12"), ("0", "m_max must be at least 1"))
        for m_max, message in cases:
            assert run(tmp_path, "verify-lemmas", "--m-max", m_max)[0] == 2
            assert f"error: {message}" in capsys.readouterr().err

    def test_library_hook_matches_cli(self):
        lines, ok = lemma_checks(2)
        assert ok and lines[-1] == "result=pass"

    def test_library_hook_raises_value_error(self):
        for m_max in (0, 13):
            with pytest.raises(ValueError, match="m-max must lie in 1..12"):
                lemma_checks(m_max)

    def test_library_hook_reads_m_max_as_an_integer(self):
        # 2.5 once ran m <= 2 and passed, and "3" raised TypeError
        for m_max in (2.5, "3", None):
            with pytest.raises(ValueError, match="m-max must be an integer"):
                lemma_checks(m_max)
        assert lemma_checks(np.int64(2)) == lemma_checks(2)


class TestSubcodeOracle:
    def test_pinned_row(self, tmp_path):
        code, text = run(tmp_path, "subcode-oracle", "--m", "3", "--r", "1", "--d", "1")
        assert code == 0
        assert body_lines(text) == [
            "m,r,d,k,dimension_bound,oracle_dim,construction_dim",
            "3,1,1,4,3,1,1",
        ]

    def test_zero_dimension_case(self, tmp_path):
        code, text = run(tmp_path, "subcode-oracle", "--m", "4", "--r", "1", "--d", "2")
        assert code == 0
        assert body_lines(text)[1] == "4,1,2,5,3,0,0"

    def test_dimension_guard(self, tmp_path, capsys):
        code, _ = run(tmp_path, "subcode-oracle", "--m", "6", "--r", "3", "--d", "1")
        assert code == 2
        assert "oracle needs 2**m <= 32 or r <= 1, got m=6, r=3" in capsys.readouterr().err

    def test_whole_length_32_space(self, tmp_path):
        code, text = run(tmp_path, "subcode-oracle", "--m", "5", "--r", "5", "--d", "2")
        assert code == 0
        assert body_lines(text)[1] == "5,5,2,32,12,11,8"

    @pytest.mark.parametrize("faulted", ["oracle", "construction"])
    def test_unconstrained_basis_is_violation(self, tmp_path, monkeypatch, faulted):
        # a basis whose span breaks the gap fails the run even when the
        # dimensions still sit between the construction and the bound
        ones = BinaryMatrix([0xFF], 8)
        if faulted == "oracle":
            monkeypatch.setattr(cli, "largest_linear_rll_subcode", lambda code, spec: (1, ones))
        else:
            monkeypatch.setattr(
                cli, "build_subcode", lambda code, spec: RllSubcode(code, spec, ones, 1, (0,))
            )
        code, text = run(tmp_path, "subcode-oracle", "--m", "3", "--r", "1", "--d", "1")
        assert code == 1
        assert body_lines(text)[1] == "3,1,1,4,3,1,1"
        assert f"# violation={faulted}_rll" in text.splitlines()

    def test_m_guard(self, tmp_path, capsys):
        # r = 1 keeps the dimension at 16, so only the bound on m rejects it
        code, _ = run(tmp_path, "subcode-oracle", "--m", "15", "--r", "1", "--d", "1")
        assert code == 2
        assert "m must be at most 14" in capsys.readouterr().err


class TestCosetTrial:
    def test_noiseless_has_no_errors(self, tmp_path):
        code, text = run(
            tmp_path,
            "coset-trial",
            "--m", "4", "--r", "1", "--d", "1",
            "--part-exponent", "2", "--inner-order", "1",
            "--channel", "bec", "--param", "0.0",
            "--trials", "64", "--seed", "1",
        )
        assert code == 0
        row = body_lines(text)[1].split(",")
        header = body_lines(text)[0].split(",")
        record = dict(zip(header, row))
        assert record["block_errors"] == "0"
        assert record["p_hat"] == "0.000000"
        assert record["payload_bits"] == "3"

    def test_infeasible_plan_is_usage_error(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "coset-trial",
            "--m", "4", "--r", "1", "--d", "1",
            "--part-exponent", "9",
            "--channel", "bec", "--param", "0.1",
            "--trials", "10", "--seed", "1",
        )
        assert code == 2
        assert "infeasible" in capsys.readouterr().err

    def test_invalid_m_names_the_cause(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "coset-trial",
            "--m", "0", "--r", "0", "--d", "0", "--part-exponent", "1",
            "--channel", "bec", "--param", "0.1", "--trials", "1", "--seed", "1",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "m must be at least 1" in err and "part exponent" not in err

    def test_m_guard(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "coset-trial",
            "--m", "15", "--r", "7", "--d", "1", "--part-exponent", "5",
            "--channel", "bec", "--param", "0.1", "--trials", "1", "--seed", "1",
        )
        assert code == 2
        assert "m must be at most 14" in capsys.readouterr().err

    def test_inner_exponent_guard(self, tmp_path, capsys):
        # the inner code is RM(m - part_exponent + d.bit_length(), .):
        # exponent 15, then 26, which would not fit in memory; the small
        # case comes first so that a missing guard fails before the
        # large one is built
        for m, r, d, inner_order in (("6", "3", "1000", "10"), ("14", "7", "5000", "13")):
            code, _ = run(
                tmp_path,
                "coset-trial",
                "--m", m, "--r", r, "--d", d, "--part-exponent", "1",
                "--inner-order", inner_order,
                "--channel", "bec", "--param", "0.1", "--trials", "1", "--seed", "1",
            )
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: inner code exponent")
            assert "must be at most 14" in err

    def test_full_order_without_inner_order_names_the_cause(self, tmp_path, capsys):
        argv = [
            "coset-trial",
            "--m", "3", "--r", "3", "--d", "1", "--part-exponent", "1",
            "--channel", "bec", "--param", "0.1", "--trials", "2", "--seed", "1",
        ]
        assert run(tmp_path, *argv)[0] == 2
        err = capsys.readouterr().err
        assert "infeasible plan: r = m leaves no tail" in err
        assert "inner order" in err
        # with an explicit inner order the same configuration runs
        assert run(tmp_path, *argv, "--inner-order", "1")[0] == 0

    def test_infeasible_selected_inner_order_names_the_rule(self, tmp_path, capsys):
        argv = [
            "coset-trial",
            "--m", "4", "--r", "0", "--d", "1", "--part-exponent", "2",
            "--channel", "bsc", "--param", "0.5", "--trials", "3", "--seed", "1",
        ]
        assert run(tmp_path, *argv)[0] == 2
        err = capsys.readouterr().err
        assert "infeasible plan: the selection rule picked inner order 0" in err
        assert "must lie in [1, 3]" in err and "give the inner order" in err
        # an explicit out-of-range order is reported without the rule
        assert run(tmp_path, *argv, "--inner-order", "0")[0] == 2
        err = capsys.readouterr().err
        assert "selection rule" not in err and "must lie in [1, 3]" in err
        assert run(tmp_path, *argv, "--inner-order", "1")[0] == 0

    def test_bsc_pinned_row(self, tmp_path):
        code, text = run(
            tmp_path,
            "coset-trial",
            "--m", "5", "--r", "2", "--d", "1",
            "--part-exponent", "2",
            "--channel", "bsc", "--param", "0.05",
            "--trials", "300", "--seed", "77",
        )
        assert code == 0
        assert body_lines(text)[1] == (
            "5,2,1,2,2,16,4,16,11,0.137500,bsc,0.050000,300,41,0.136667,0.038870"
        )

    def test_bsc_large_payload_runs(self, tmp_path):
        # 64 payload bits; the tail fixes the prefix (k - rank P = 0)
        code, text = run(
            tmp_path,
            "coset-trial",
            "--m", "8", "--r", "3", "--d", "1",
            "--part-exponent", "4",
            "--channel", "bsc", "--param", "0.01",
            "--trials", "2", "--seed", "7",
        )
        assert code == 0
        record = dict(zip(*(line.split(",") for line in body_lines(text))))
        assert record["payload_bits"] == "64"

    def test_bsc_coset_cap_is_usage_error(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "coset-trial",
            "--m", "8", "--r", "4", "--d", "1",
            "--part-exponent", "4",
            "--channel", "bsc", "--param", "0.01",
            "--trials", "2", "--seed", "7",
        )
        assert code == 2
        assert (
            "error: bsc decoding is exhaustive and needs k - rank(P) <= 20"
            " and inner dimension <= 16 (plan has 70 and 5)"
        ) in capsys.readouterr().err

    def test_channel_choice_validated(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "coset-trial",
            "--m", "4", "--r", "1", "--d", "1",
            "--part-exponent", "2",
            "--channel", "awgn", "--param", "0.1",
            "--trials", "10", "--seed", "1",
        )
        assert code == 2
        capsys.readouterr()

    def test_payload_beyond_int64_runs(self, tmp_path):
        # 113 payload bits: message indices exceed the int64 draw range
        code, text = run(
            tmp_path,
            "coset-trial",
            "--m", "8", "--r", "4", "--d", "1",
            "--part-exponent", "3",
            "--channel", "bec", "--param", "0.05",
            "--trials", "2", "--seed", "7",
        )
        assert code == 0
        record = dict(zip(*(line.split(",") for line in body_lines(text))))
        assert record["payload_bits"] == "113"

    def test_seed_required(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "coset-trial",
            "--m", "4", "--r", "1", "--d", "1",
            "--part-exponent", "2",
            "--channel", "bec", "--param", "0.1",
            "--trials", "10",
        )
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "coset-trial",
            "--m", "4", "--r", "1", "--d", "1",
            "--part-exponent", "2",
            "--channel", "bec", "--param", "0.1",
            "--trials", "10", "--seed", "-1",
        )
        assert code == 2
        assert "seed must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trials", "0", "trials must be at least 1"),
            ("--seed", "-1", "seed must be at least 0"),
            ("--param", "1.5", "param must be at most 1"),
        ],
        ids=[  # each names the rule that is broken
            "--trials-0-trials must be positive",
            "--seed--1-seed must be nonnegative",
            "--param-1.5-erasure probability must lie in [0, 1]",
        ],
    )
    def test_scalar_options_checked_before_plan(
        self, flag, value, message, tmp_path, capsys, monkeypatch
    ):
        # build_plan is the costly step at large m; a bad scalar option is
        # reported without building the plan
        def no_plan(*args):
            raise AssertionError("build_plan called")

        monkeypatch.setattr(cli, "build_plan", no_plan)
        options = {
            "--m": "4", "--r": "1", "--d": "1", "--part-exponent": "2",
            "--channel": "bec", "--param": "0.1", "--trials": "10", "--seed": "1",
            flag: value,
        }
        code, _ = run(tmp_path, "coset-trial", *(x for kv in options.items() for x in kv))
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        argv = [
            "coset-trial",
            "--m", "5", "--r", "2", "--d", "1",
            "--part-exponent", "2", "--inner-order", "1",
            "--channel", "bec", "--param", "0.6",
            "--trials", "200", "--seed", "42",
        ]
        _, first = run(tmp_path, *argv)
        _, second = run(tmp_path, *argv)
        assert first == second
        errors = int(body_lines(first)[1].split(",")[13])
        assert errors > 0  # the rerun check is vacuous on an all-zero column


class TestCrossover:
    def test_report_lines(self, tmp_path):
        code, text = run(tmp_path, "crossover", "--d", "1")
        assert code == 0
        assert "capacity_crossover=0.761260" in text
        assert "erasure_threshold=0.238740" in text
        assert "bsc_threshold=0.039228" in text

    def test_no_crossover_for_unconstrained(self, tmp_path):
        code, text = run(tmp_path, "crossover", "--d", "0")
        assert code == 0
        assert "crossover=none" in text

    def test_large_gap_runs(self, tmp_path):
        code, text = run(tmp_path, "crossover", "--d", "5000")
        assert code == 0
        assert "capacity_crossover=" in text

    def test_integers_beyond_float_range_run(self, tmp_path):
        code, text = run(tmp_path, "crossover", "--d", str(10**400))
        assert code == 0
        assert "crossover=none" in text  # the subcode bound 2**-1329 is 0.0
        code, text = run(tmp_path, "crossover", "--d", "1", "--part-exponent", str(10**400))
        assert code == 0
        assert body_lines(text) == body_lines(
            run(tmp_path, "crossover", "--d", "1", "--part-exponent", "1100")[1]
        )

    def test_huge_anchor_and_part_exponent_run(self, tmp_path):
        code, text = run(tmp_path, "crossover", "--d", str(2**1080), "--part-exponent", "2000")
        assert code == 0
        assert "capacity_crossover=" in text

    def test_tolerance_below_float_spacing_terminates(self, tmp_path):
        # no float bracket around 0.76 is 1e-300 wide; the grid-plus-bisection
        # search the closed form replaced stops once its ends are adjacent
        # floats, and agrees with the printed crossover
        code, text = run(tmp_path, "crossover", "--d", "1")
        assert code == 0
        assert "capacity_crossover=0.761260" in text
        reference = grid_bisection_crossover(RllSpec(1), 50, 1e-300)
        assert f"capacity_crossover={reference:.6f}" in text

    def test_tolerance_config_key_rejected(self, tmp_path, capsys):
        # the crossover is exact, so a config that still sets tol is invalid
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=1\ntol=1e-6\n", encoding="utf-8")
        assert main(["crossover", "--config", str(cfg)]) == 2
        assert "unknown config key 'tol'" in capsys.readouterr().err


class TestPermSweep:
    def test_csv_shape_and_summary(self, tmp_path):
        code, text = run(
            tmp_path,
            "perm-sweep",
            "--m", "4", "--r", "1", "--d", "1",
            "--samples", "6", "--seed", "9",
        )
        assert code == 0
        rows = body_lines(text)
        assert rows[0] == "m,r,d,kind,seed,k,runs,bounded_runs,tuples,bound"
        assert len(rows) == 7
        assert rows[1].startswith("4,1,1,sampled,9:0,5,")
        assert "# mean_bound=" in text and "# max_bound=" in text

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["perm-sweep", "--m", "5", "--r", "2", "--d", "2",
                "--samples", "10", "--seed", "3"]
        _, first = run(tmp_path, *argv)
        _, second = run(tmp_path, *argv)
        assert first == second

    def test_gap_beyond_int64_runs(self, tmp_path):
        # runs are at most 2**m long, so any d >= 2**m counts no tuples
        argv = ["perm-sweep", "--m", "3", "--r", "1", "--samples", "2", "--seed", "1"]
        rows = {}  # each output with its d replaced
        for d in (2**63 - 2, 2**63 - 1, 10**400):
            code, text = run(tmp_path, *argv, "--d", str(d))
            assert code == 0
            rows[d] = text.replace(str(d), "d")
        assert rows[2**63 - 2] == rows[2**63 - 1] == rows[10**400]

    def test_m_guard(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "perm-sweep",
            "--m", "15", "--r", "1", "--d", "1",
            "--samples", "2", "--seed", "1",
        )
        assert code == 2
        capsys.readouterr()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "perm-sweep",
            "--m", "4", "--r", "1", "--d", "1",
            "--samples", "2", "--seed", "-1",
        )
        assert code == 2
        assert "seed must be at least 0" in capsys.readouterr().err


class TestHeaderComments:
    def test_resolved_config_is_embedded(self, tmp_path):
        _, text = run(
            tmp_path,
            "perm-sweep",
            "--m", "4", "--r", "2", "--d", "1",
            "--samples", "2", "--seed", "5",
        )
        for needle in (
            "# command=perm-sweep",
            "# m=4",
            "# r=2",
            "# d=1",
            "# samples=2",
            "# seed=5",
        ):
            assert needle in text
