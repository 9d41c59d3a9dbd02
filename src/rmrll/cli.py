"""Experiment command line.

Subcommands emit CSV (or key=value report lines) with the fully
resolved configuration echoed as '#' comment lines, so every output
file documents how it was produced.  Rates are printed with exactly six
decimals and stochastic commands derive all randomness from --seed, so
reruns are byte-identical.

Exit status: 0 on success, 1 when a verification check fails, 2 on
invalid configuration or an unwritable --out path.  Any other exception
is a fault of the program and propagates.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from itertools import chain, islice
from math import comb
from typing import Callable, Iterable, Iterator

import numpy as np

from .channels import BEC, BSC, estimate_block_error
from .coset import (
    bsc_threshold,
    build_plan,
    check_bsc_limits,
    coset_rate_lower_bound,
    crossover_capacity,
    decode,
    encode,
)
from .gf2 import _pack_bits
from .ordering import (
    bounded_run_counts,
    gray_ordering,
    lex_run_count,
    lexicographic_ordering,
    permutation_bound_experiment,
    run_profile,
    subcode_dimension_bound,
)
from .rll import RllSpec, noiseless_capacity
from .rm import (
    RmCode,
    _dimension,
    _down_set_columns,
    _point_weights,
    _weight_order,
    complement_basis,
)
from .subcodes import SEARCH_MAX_N, build_subcode, is_rll_code, largest_linear_rll_subcode

__all__ = ["main", "lemma_checks"]

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

# Largest m of any RM(m, r) a command builds; for coset-trial that is
# the outer code and the inner one, of exponent
# m - part_exponent + d.bit_length().  Codes have 2**m coordinates and a
# generator of k rows holds k * 2**m bits, so memory sets the cap: on one
# core of a 2-vCPU host, Python 3.11, a BEC trial at m = 14, r = 7 peaks
# near 100 MiB and one at m = 15 near 250 MiB, while build_plan takes
# 0.09 and 0.2 s.
MAX_M = 14


class UsageError(Exception):
    """Invalid or missing configuration; maps to exit status 2."""


@dataclass(frozen=True)
class Opt:
    name: str
    typ: type
    default: object = None
    required: bool = False
    choices: tuple = ()
    bounds: tuple = ()  # (low, high), high None for no upper bound
    help: str = ""


@dataclass(frozen=True)
class Command:
    """One subcommand: its runner, help text and options.  A runner maps
    the resolved options to (output lines, exit status).  It checks the
    options before it returns, and may return the lines as an iterator,
    which is written as it makes them."""

    run: Callable[..., tuple[Iterable[str], int]]
    help: str
    opts: tuple[Opt, ...]


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parse_config_file(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return out


def _resolve(args: argparse.Namespace, opts: tuple[Opt, ...]) -> dict:
    file_vals = _parse_config_file(args.config) if args.config else {}
    known = {o.name for o in opts}
    for key in file_vals:
        if key not in known:
            raise UsageError(f"unknown config key '{key}'")
    resolved = {}
    for o in opts:
        v = getattr(args, o.name)
        if v is None and o.name in file_vals:
            try:
                v = o.typ(file_vals[o.name])
            except ValueError as exc:
                raise UsageError(f"bad value for '{o.name}': {file_vals[o.name]}") from exc
        if v is None:
            v = o.default
        if v is None and o.required:
            raise UsageError(f"missing required option {_flag(o.name)}")
        if o.choices and v is not None and v not in o.choices:
            raise UsageError(f"'{o.name}' must be one of {', '.join(o.choices)}")
        if o.bounds and v is not None:
            low, high = o.bounds
            if not low <= v:  # NaN fails here
                raise UsageError(f"{o.name} must be at least {low}")
            if high is not None and not v <= high:
                raise UsageError(f"{o.name} must be at most {high}")
        resolved[o.name] = v
    return resolved


def _header(command: str, params: dict, out_path: str) -> list[str]:
    lines = [f"# command={command}"]
    for key in sorted(params):
        lines.append(f"# {key}={params[key]}")
    lines.append(f"# out={out_path}")
    return lines


def _emit(out_path: str, lines: Iterable[str]) -> None:
    # joined 1,024 lines at a time: a write per line is slow on an
    # unbuffered stdout (PYTHONUNBUFFERED)
    rows = iter(lines)
    text = iter(lambda: "".join(line + "\n" for line in islice(rows, 1024)), "")
    if out_path == "-":
        sys.stdout.writelines(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(text)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc


# rate-curves writes each row as it makes it, so memory stays flat; the
# cap bounds the run time: 10**6 rows take 2-4 s on one core of a
# 2-vCPU host, Python 3.11.
MAX_GRID_ROWS = 10**6


def cmd_rate_curves(p: dict) -> tuple[Iterator[str], int]:
    # the row count is compared as a float: 1 / grid is inf for a subnormal grid
    if not 0.0 < p["grid"] <= 0.1 or 1.0 / p["grid"] + 1e-9 >= MAX_GRID_ROWS + 1:
        raise UsageError(
            f"grid must lie in (0, 0.1] and give at most {MAX_GRID_ROWS:,} rows"
            f" (about {1 / MAX_GRID_ROWS:g} or more)"
        )
    spec = RllSpec(p["d"])
    c0 = noiseless_capacity(spec)
    scale = 2.0 ** (-spec.anchor_count)
    steps = int(1.0 / p["grid"] + 1e-9)

    def rows() -> Iterator[str]:
        yield "capacity,subcode_bound,coset_bound,coset_averaging_bound"
        for k in range(1, steps + 1):
            c = min(k * p["grid"], 1.0)
            coset = coset_rate_lower_bound(c0, c, spec, p["part_exponent"])
            averaging = max(0.0, c0 + c - 1.0)
            yield f"{_fmt(c)},{_fmt(c * scale)},{_fmt(coset)},{_fmt(averaging)}"

    return rows(), EXIT_OK


LEMMA_M = 12  # the run checks cover every m up to it, whatever m_max


def _complement_spans(m: int) -> bool:
    """Whether each ``complement_basis(m, r)`` spans exactly the unit
    vectors off RM(m, r)'s information set, for every r in 0..m.

    ``complement_basis(m, r)`` is the last 2**m - k_r rows of
    ``complement_basis(m, 0)``, the monomials by ascending degree.  Its
    2**m - 1 rows have pairwise distinct, nonzero lowest 1s, so every
    suffix is independent and has rank 2**m - k_r, the number of points
    off the information set; a row of degree j is in it for each r < j,
    so vanishing there for all of them is vanishing below weight j.
    """
    weights = _point_weights(m)
    ks = [_dimension(m, r) for r in range(m + 1)]
    rows = complement_basis(m, 0).row_values
    ok = len(rows) == len({row & -row for row in rows} - {0}) == (1 << m) - 1
    for j in range(1, m + 1):
        below = _pack_bits(weights < j)
        ok &= not any(row & below for row in rows[ks[j - 1] - 1 : ks[j] - 1])
    return ok


def lemma_checks(m_max: int) -> tuple[list[str], bool]:
    """Structural verification report.  Raises ValueError for m_max
    outside 1..12.

    Each m's work is done once for every r.  With rows and columns in
    the weight order ``_weight_order(m)``, the first k of all 2**m
    monomials x_a are RM(m, r)'s generator and the first k columns its
    information set, so one certificate checks every rank: each column's
    highest 1 (``bit_length`` of ``_down_set_columns``) is on the
    diagonal; the point weights along that order check that it is the
    weight order.  The complement spans are certified by pivots too: the
    complement rows' lowest 1s are distinct (``_complement_spans``).  One
    scan of the point weights per ordering gives every bounded-run count
    (``bounded_run_counts``).
    """
    if not 1 <= m_max <= LEMMA_M:
        raise ValueError(f"m-max must lie in 1..{LEMMA_M}")
    rank_lines, span_lines, run_lines = [], [], []
    all_ok = True
    for m in range(1, LEMMA_M + 1):
        n = 1 << m
        if m <= m_max:
            weights = _point_weights(m)
            order = _weight_order(m)
            heights = np.fromiter(map(int.bit_length, _down_set_columns(m, order)), np.intp, n)
            ok = np.array_equal(heights[order], np.arange(1, n + 1)) and np.array_equal(
                weights[order], np.sort(weights)
            )
            rank_lines.append(f"check=info-set-rank m={m} status={'ok' if ok else 'FAIL'}")
            all_ok &= ok

        if m <= min(m_max, 8):
            ok = _complement_spans(m)
            span_lines.append(f"check=complement-span m={m} status={'ok' if ok else 'FAIL'}")
            all_ok &= ok

        lex = bounded_run_counts(lexicographic_ordering(m))
        gray = bounded_run_counts(gray_ordering(m))
        ok_lex = lex == tuple(lex_run_count(m, r) for r in range(m))
        ok_gray = all(runs <= comb(m, r + 1) for r, runs in enumerate(gray))
        run_lines.append(f"check=lex-run-count m={m} status={'ok' if ok_lex else 'FAIL'}")
        run_lines.append(f"check=gray-run-bound m={m} status={'ok' if ok_gray else 'FAIL'}")
        all_ok &= ok_lex and ok_gray

    lines = rank_lines + span_lines + run_lines
    lines.append(f"result={'pass' if all_ok else 'fail'}")
    return lines, all_ok


def cmd_verify_lemmas(p: dict) -> tuple[list[str], int]:
    lines, ok = lemma_checks(p["m_max"])
    return lines, EXIT_OK if ok else EXIT_FAIL


def cmd_subcode_oracle(p: dict) -> tuple[list[str], int]:
    m, r, d = p["m"], p["r"], p["d"]
    if r > m:
        raise UsageError("r must be at most m")
    spec = RllSpec(d)
    if m < spec.anchor_count:
        raise UsageError(f"need m >= {spec.anchor_count} for d={d}")
    if 1 << m > SEARCH_MAX_N and r > 1:
        raise UsageError(f"oracle needs 2**m <= {SEARCH_MAX_N} or r <= 1, got m={m}, r={r}")
    code = RmCode(m, r)
    prof = run_profile(code.information_set(), lexicographic_ordering(m), spec)
    bound = subcode_dimension_bound(code.k, prof.tuple_count, spec)
    oracle_dim, oracle_basis = largest_linear_rll_subcode(code, spec)
    construction = build_subcode(code, spec)
    lines = [
        "m,r,d,k,dimension_bound,oracle_dim,construction_dim",
        f"{m},{r},{d},{code.k},{bound},{oracle_dim},{construction.k}",
    ]
    checks = {
        "construction<=oracle<=bound": construction.k <= oracle_dim <= bound,
        "oracle_rll": is_rll_code(oracle_basis, d),
        "construction_rll": is_rll_code(construction.gen, d),
    }
    lines += [f"# violation={name}" for name, ok in checks.items() if not ok]
    return lines, EXIT_OK if all(checks.values()) else EXIT_FAIL


def cmd_coset_trial(p: dict) -> tuple[list[str], int]:
    spec = RllSpec(p["d"])
    inner_m = p["m"] - p["part_exponent"] + spec.anchor_count
    if inner_m > MAX_M:
        raise UsageError(
            f"inner code exponent m - part_exponent + d.bit_length() = {inner_m}"
            f" must be at most {MAX_M}"
        )
    channel = BEC(p["param"]) if p["channel"] == "bec" else BSC(p["param"])
    try:
        plan = build_plan(p["m"], p["r"], spec, p["part_exponent"], p["inner_order"])
    except ValueError as exc:
        raise UsageError(f"infeasible plan: {exc}") from exc
    if p["channel"] == "bsc":
        try:
            check_bsc_limits(plan)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    k = plan.k

    def enc(index: int):
        return encode(index, plan).transmitted

    def dec(obs):
        result = decode(obs[:k], obs[k:], plan, channel)
        return result.message if result.is_message else None

    est = estimate_block_error(
        enc, dec, 1 << plan.payload_bits, channel, p["trials"], p["seed"]
    )
    lines = [
        "m,r,d,part_exponent,inner_order,k,part_count,part_length,payload_bits,"
        "realized_rate,channel,param,trials,block_errors,p_hat,halfwidth",
        f"{plan.m},{plan.r},{spec.d},{plan.part_exponent},{plan.inner_order},"
        f"{plan.k},{plan.part_count},{plan.part_length},{plan.payload_bits},"
        f"{_fmt(plan.realized_rate)},{p['channel']},{_fmt(p['param'])},"
        f"{est.trials},{est.errors},{_fmt(est.p_hat)},{_fmt(est.halfwidth)}",
    ]
    return lines, EXIT_OK


def cmd_crossover(p: dict) -> tuple[list[str], int]:
    spec = RllSpec(p["d"])
    cstar = crossover_capacity(spec, p["part_exponent"])
    if cstar is None:
        return ["crossover=none"], EXIT_OK
    lines = [
        f"capacity_crossover={_fmt(cstar)}",
        f"erasure_threshold={_fmt(1.0 - cstar)}",
        f"bsc_threshold={_fmt(bsc_threshold(cstar))}",
    ]
    return lines, EXIT_OK


def cmd_perm_sweep(p: dict) -> tuple[list[str], int]:
    m, r, d = p["m"], p["r"], p["d"]
    if r > m:
        raise UsageError("r must be at most m")
    spec = RllSpec(d)
    exp = permutation_bound_experiment(RmCode(m, r), spec, p["samples"], p["seed"])
    lines = ["m,r,d,kind,seed,k,runs,bounded_runs,tuples,bound"]
    for s in exp.samples:
        lines.append(
            f"{m},{r},{d},sampled,{p['seed']}:{s.index},{exp.k},{s.run_count},"
            f"{s.bounded_runs},{s.tuple_count},{_fmt(s.rate_bound)}"
        )
    reference = exp.k / ((d + 1) << m) + 0.05
    above = sum(1 for s in exp.samples if s.rate_bound > reference)
    lines.append(f"# mean_bound={_fmt(exp.mean_bound)}")
    lines.append(f"# max_bound={_fmt(exp.max_bound)}")
    lines.append(f"# fraction_above_reference={_fmt(above / len(exp.samples))}")
    return lines, EXIT_OK


# options of several commands, each range stated once
_D = Opt("d", int, required=True, bounds=(0, None), help="minimum zeros between 1s")
_M = Opt("m", int, required=True, bounds=(1, MAX_M), help="code exponent")
_R = Opt("r", int, required=True, bounds=(0, None), help="code order")
_PART = Opt("part_exponent", int, default=50, bounds=(1, None), help="tail part-size exponent")
_SEED = Opt("seed", int, required=True, bounds=(0, None), help="master seed")

COMMANDS: dict[str, Command] = {
    "rate-curves": Command(
        cmd_rate_curves,
        "tabulate achievable-rate bounds against channel capacity",
        (_D, _PART, Opt("grid", float, default=0.01, help="capacity step in (0, 0.1]")),
    ),
    "verify-lemmas": Command(
        cmd_verify_lemmas,
        "verify structural identities exhaustively over small sizes",
        (
            Opt(
                "m_max",
                int,
                required=True,
                bounds=(1, LEMMA_M),
                help="largest code exponent for the rank checks; span checks cap"
                " at m=8 and run-count checks always cover m<=12",
            ),
        ),
    ),
    "subcode-oracle": Command(
        cmd_subcode_oracle,
        "compare the subcode construction against the exact optimum",
        (_M, _R, _D),
    ),
    "coset-trial": Command(
        cmd_coset_trial,
        "Monte-Carlo block-error trial of the coset transmission scheme",
        (
            replace(_M, help="outer code exponent"),
            replace(_R, help="outer code order"),
            _D,
            replace(_PART, default=None, required=True),
            Opt("inner_order", int, help="inner code order (default: selection rule)"),
            Opt("channel", str, required=True, choices=("bec", "bsc"), help="channel kind"),
            Opt("param", float, required=True, bounds=(0, 1), help="erasure or flip probability"),
            Opt(
                "trials", int, required=True, bounds=(1, None), help="number of Monte-Carlo trials"
            ),
            _SEED,
        ),
    ),
    "crossover": Command(
        cmd_crossover,
        "capacity at which the coset bound overtakes the subcode bound",
        (_D, _PART),
    ),
    "perm-sweep": Command(
        cmd_perm_sweep,
        "dimension-bound statistics over random coordinate orderings",
        (
            _M,
            _R,
            _D,
            Opt(
                "samples", int, required=True, bounds=(1, None), help="number of sampled orderings"
            ),
            _SEED,
        ),
    ),
}


def _range(o: Opt) -> str:
    """The range of ``o`` as its help line shows it."""
    if not o.bounds:
        return ""
    low, high = o.bounds
    return f" (at least {low})" if high is None else f" (in [{low}, {high}])"


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every subcommand.  ``main`` runs it on each
    argv that ``_parse_spelled_out`` leaves alone: help, usage errors,
    abbreviations and ``--flag=value`` forms."""
    parser = argparse.ArgumentParser(
        prog="rmrll",
        description="experiments on gap-constrained Reed-Muller transmission",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        cp = sub.add_parser(name, help=cmd.help)
        cp.add_argument("--out", default="-", help="output path (default: stdout)")
        cp.add_argument(
            "--config", default=None, help="file of key=value defaults; flags win"
        )
        for o in cmd.opts:
            cp.add_argument(
                _flag(o.name), dest=o.name, type=o.typ, default=None, help=o.help + _range(o)
            )
    return parser


def _parse_spelled_out(argv: list[str]) -> argparse.Namespace | None:
    """``_build_parser().parse_args(argv)``, read from ``COMMANDS``, for
    ``<command> (--<flag> <value>)*`` with each flag spelled out in full
    and no value starting with '-' (the last repeat wins).  None for any
    other argv, or a value its option's type rejects."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    opts = COMMANDS[argv[0]].opts
    flags = {"--out": ("out", str), "--config": ("config", str)}
    flags.update((_flag(o.name), (o.name, o.typ)) for o in opts)
    values = {"command": argv[0], "out": "-", "config": None}
    values.update((o.name, None) for o in opts)
    for flag, raw in zip(argv[1::2], argv[2::2]):
        if flag not in flags or raw.startswith("-"):
            return None
        dest, typ = flags[flag]
        try:
            values[dest] = typ(raw)
        except ValueError:
            return None
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns its exit status.  Spelled-out flags
    are parsed from the command table; every other argv goes through
    argparse, whose help, usage errors and exit statuses are unchanged."""
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_spelled_out(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    cmd = COMMANDS[args.command]
    try:
        params = _resolve(args, cmd.opts)
        body, status = cmd.run(params)
        _emit(args.out, chain(_header(args.command, params, args.out), body))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return status


if __name__ == "__main__":
    raise SystemExit(main())
