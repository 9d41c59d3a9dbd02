"""The benchmark's workloads: set-up, rounds of timed operations, checks.

Each workload has three phases.  ``setup`` is what set-up time
measures: the work a user pays once before the first operation.
``prepare`` computes the reference data the checks need; it is not
timed.  ``run_round`` performs one round of operations, each timed on
its own, then checks every output and records the outcome in a
``Tally``.  An operation fails when it raises or when any of its checks
fails.  Every round runs the same operations, so the failed share of a
run does not depend on its length.

``fresh_import`` marks workloads whose operations stand for separate
command-line runs: the benchmark imports rmrll afresh before each of
their rounds, so no module-level cache carries over from one round to
the next.  Without it, repeated ``verify-lemmas`` calls in one process
would run about ten times faster than the command does.

The check functions take plain outputs so that ``negative_control.py``
can feed them corrupted ones through the same accounting.
"""

from __future__ import annotations

import contextlib
import io
import random
from math import comb
from time import perf_counter

import checks

MAX_PROBLEMS = 20  # problem texts kept per run for the error report


class Tally:
    """Operations attempted, failed and raised, and their timed seconds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.raised = 0
        self.seconds = 0.0
        self.problems: list[str] = []

    def record(self, seconds: float, problems: list[str], count: int = 1, raised: bool = False):
        self.attempted += count
        self.seconds += seconds
        if raised:
            self.raised += count
        if problems or raised:
            self.failed += count
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.extend(problems[:1])

    @property
    def completed(self) -> int:
        return self.attempted - self.raised


def timed(tracer, fn):
    """Run ``fn()`` as one operation: (value, seconds, exception or None)."""
    if tracer is not None:
        tracer.begin("ops")
    start = perf_counter()
    try:
        value, error = fn(), None
    except Exception as exc:  # an operation that raises is a failed operation
        value, error = None, exc
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.end(seconds)
    return value, seconds, error


def run_cli(lib, argv: list[str]) -> tuple[int, str, str]:
    """``rmrll.cli.main`` in-process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = lib.cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def _pack(obs) -> int:
    """Packed value of a 0/1 observation array."""
    return int("".join("1" if b else "0" for b in reversed(obs.tolist())) or "0", 2)


# --------------------------------------------------------------------- bec-m10

BEC_M, BEC_R, BEC_D, BEC_PE, BEC_ERASURE = 10, 5, 1, 4, 0.05
BEC_TRIALS = 4  # trials per round


def bec_plan_facts():
    z = BEC_D.bit_length()
    k = checks.rm_dimension(BEC_M, BEC_R)
    return {
        "k": k,
        "part_length": 1 << (BEC_M - BEC_PE + z),
        "payload_bits": checks.constrained_counts(k, BEC_D)[k].bit_length() - 1,
    }


def check_bec_plan(plan, facts) -> list[str]:
    problems = [
        f"plan {key}={getattr(plan, key)} expected {want}"
        for key, want in facts.items()
        if getattr(plan, key) != want
    ]
    tail = plan.outer_length - plan.k
    if plan.part_count != -(-tail // plan.inner.k):
        problems.append(f"plan part_count={plan.part_count} does not cover the tail")
    return problems


class BecReference:
    """What every bec-m10 trial is checked against."""

    def __init__(self, plan):
        self.k = plan.k
        self.d = plan.spec.d
        self.length = plan.total_length
        self.perm = plan.permutation.perm
        self.counts = checks.constrained_counts(plan.k, self.d)
        # the dual of RM(m, r) is RM(m, m - r - 1)
        self.dual = checks.rm_generators(BEC_M, BEC_M - BEC_R - 1)


def check_bec_trial(ref: BecReference, message: int, tx, result) -> list[str]:
    """The erasure decoder never returns a wrong message, and what was
    sent is the constrained prefix of ``message`` followed by a valid
    Reed-Muller codeword tail."""
    problems = []
    if result.status == "message":
        if result.message != message:
            problems.append("decoder returned a wrong message")
    elif result.status not in ("ambiguous", "failure"):
        problems.append(f"unknown decode status {result.status!r}")
    sent = tx.transmitted
    if len(sent) != ref.length:
        problems.append(f"transmitted length {len(sent)} expected {ref.length}")
    if not checks.gap_ok(sent.value, ref.d):
        problems.append("transmitted word breaks the gap constraint")
    prefix_mask = (1 << ref.k) - 1
    if sent.value & prefix_mask != tx.outer_codeword.value & prefix_mask:
        problems.append("transmitted prefix differs from the outer codeword prefix")
    if checks.lex_rank(sent.value & prefix_mask, ref.k, ref.d, ref.counts) != message:
        problems.append("prefix does not rank back to the message")
    natural = checks.unpermute(tx.outer_codeword.value, ref.perm)
    if not checks.orthogonal_to_all(natural, ref.dual):
        problems.append("outer codeword is not in RM(10, 5)")
    return problems


class BecM10:
    """Erasure-channel trials at m=10: fresh linear solves every trial."""

    name = "bec-m10"
    fresh_import = False  # a Monte-Carlo run reuses one plan and process

    def setup(self, lib):
        self.plan = lib.build_plan(BEC_M, BEC_R, lib.RllSpec(BEC_D), BEC_PE)

    def prepare(self, lib, seed: int):
        self.seed = seed
        self.messages = random.Random(seed)
        self.channel = lib.BEC(BEC_ERASURE)
        self.plan_problems = check_bec_plan(self.plan, bec_plan_facts())
        self.ref = BecReference(self.plan)
        self.trials = 0

    def trial(self, lib, message: int, index: int):
        plan, k = self.plan, self.plan.k
        rng = lib.trial_stream(self.seed, index)
        tx = lib.encode(message, plan)
        obs = self.channel.transmit(tx.transmitted, rng)
        return tx, lib.decode(obs[:k], obs[k:], plan, self.channel)

    def run_round(self, lib, tracer, tally: Tally):
        for _ in range(BEC_TRIALS):
            index = self.trials
            self.trials += 1
            message = self.messages.getrandbits(self.plan.payload_bits)
            value, seconds, error = timed(tracer, lambda: self.trial(lib, message, index))
            if error is not None:
                tally.record(seconds, [f"trial {index} raised {error!r}"], raised=True)
                continue
            tx, result = value
            problems = self.plan_problems + check_bec_trial(self.ref, message, tx, result)
            tally.record(seconds, problems)


# ---------------------------------------------------------------------- bsc-m6

BSC_M, BSC_R, BSC_D, BSC_PE, BSC_IO, BSC_FLIP = 6, 2, 1, 3, 2, 0.01
BSC_TRIALS = 2  # trials per coset-trial call: one round
BSC_ARGV = [
    "coset-trial", "--m", str(BSC_M), "--r", str(BSC_R), "--d", str(BSC_D),
    "--part-exponent", str(BSC_PE), "--inner-order", str(BSC_IO),
    "--channel", "bsc", "--param", str(BSC_FLIP), "--trials", str(BSC_TRIALS),
]


def bsc_expected_row() -> dict:
    """CSV fields of the README configuration, from the plan arithmetic."""
    facts = checks.coset_plan_facts(BSC_M, BSC_R, BSC_D, BSC_PE, BSC_IO)
    row = {key: str(facts[key]) for key in ("k", "part_count", "part_length", "payload_bits")}
    row.update(
        m=str(BSC_M), r=str(BSC_R), d=str(BSC_D), part_exponent=str(BSC_PE),
        inner_order=str(BSC_IO), channel="bsc", param=f"{BSC_FLIP:.6f}",
        trials=str(BSC_TRIALS), realized_rate=f"{facts['realized_rate']:.6f}",
    )
    return row


def check_bsc_call(status: int, stdout: str, stderr: str, expected: dict, replay_errors: int) -> list[str]:
    """Problems with one coset-trial call: its exit status, the plan
    facts in its CSV, and its block_errors against the library replay."""
    if status != 0:
        return [f"coset-trial exited {status}: {stderr.strip()}"]
    body = [line for line in stdout.splitlines() if line and not line.startswith("#")]
    if len(body) != 2:
        return [f"expected a CSV header and one row, got {len(body)} lines"]
    row = dict(zip(body[0].split(","), body[1].split(",")))
    problems = [
        f"csv {key}={row.get(key)} expected {want}"
        for key, want in expected.items()
        if row.get(key) != want
    ]
    if stderr:
        problems.append(f"coset-trial wrote to stderr: {stderr.strip()}")
    errors = row.get("block_errors")
    if errors != str(replay_errors):
        problems.append(f"block_errors={errors} but the replay counts {replay_errors}")
    elif row.get("p_hat") != f"{replay_errors / BSC_TRIALS:.6f}":
        problems.append(f"csv p_hat={row.get('p_hat')} does not match block_errors={errors}")
    return problems


def check_bsc_trial(lib, plan, message: int, tx, obs, result) -> list[str]:
    """Stage-wise minimum distance of one flip-channel decode.

    Each decoded part is no farther from its observation than the sent
    part; the last part's padding bits carry no information, so any
    padding of its decoded message counts.  When the decoded tail is
    the sent one, the decoded prefix is a constrained word no farther
    from its observation than the sent prefix.  A failed decode is a
    block error, not a fault.
    """
    if not checks.gap_ok(tx.transmitted.value, plan.spec.d):
        return ["transmitted word breaks the gap constraint"]
    if result.status == "failure":
        return []
    if result.status != "message":
        return [f"flip-channel decode reported {result.status!r}"]
    got = lib.encode(result.message, plan)
    k, length, dim = plan.k, plan.part_length, plan.inner.k
    problems = []
    for i, (sent, dec) in enumerate(zip(tx.parts, got.parts)):
        y = _pack(obs[k + i * length : k + (i + 1) * length])
        candidates = [dec.value]
        if i == plan.part_count - 1 and plan.pad_bits:
            u = (got.outer_codeword.value >> (k + i * dim)) & ((1 << dim) - 1)
            free = dim - plan.pad_bits
            candidates = [
                plan.inner.encode(lib.BitWord(u | (p << free), dim)).value
                for p in range(1 << plan.pad_bits)
            ]
        if min((c ^ y).bit_count() for c in candidates) > (sent.value ^ y).bit_count():
            problems.append(f"decoded part {i} is farther from its observation than the sent one")
    if got.outer_codeword.value >> k == tx.outer_codeword.value >> k:
        y = _pack(obs[:k])
        if not checks.gap_ok(got.prefix.value, plan.spec.d):
            problems.append("decoded prefix breaks the gap constraint")
        if (got.prefix.value ^ y).bit_count() > (tx.prefix.value ^ y).bit_count():
            problems.append("decoded prefix is farther from its observation than the sent one")
    return problems


class BscM6:
    """The README flip-channel configuration through the CLI."""

    name = "bsc-m6"
    fresh_import = True

    def setup(self, lib):
        pass  # each coset-trial call builds its own plan, inside the operation

    def prepare(self, lib, seed: int):
        self.seed = seed
        self.rounds = 0
        self.expected = bsc_expected_row()

    def replay(self, lib, cli_seed: int):
        """The coset-trial trials again through the library: per-trial
        problems and the block error count."""
        plan = lib.build_plan(BSC_M, BSC_R, lib.RllSpec(BSC_D), BSC_PE, BSC_IO)
        channel, k = lib.BSC(BSC_FLIP), plan.k
        problems, errors = [], 0
        for t in range(BSC_TRIALS):
            rng = lib.trial_stream(cli_seed, t)
            message = int(rng.integers(1 << plan.payload_bits))
            tx = lib.encode(message, plan)
            obs = channel.transmit(tx.transmitted, rng)
            result = lib.decode(obs[:k], obs[k:], plan, channel)
            errors += result.message != message
            problems.append(check_bsc_trial(lib, plan, message, tx, obs, result))
        return problems, errors

    def run_round(self, lib, tracer, tally: Tally):
        cli_seed = self.seed * 1_000_000 + self.rounds
        self.rounds += 1
        argv = BSC_ARGV + ["--seed", str(cli_seed)]
        value, seconds, error = timed(tracer, lambda: run_cli(lib, argv))
        per_trial = seconds / BSC_TRIALS
        if error is not None:
            tally.record(seconds, [f"coset-trial raised {error!r}"], count=BSC_TRIALS, raised=True)
            return
        trial_problems, replay_errors = self.replay(lib, cli_seed)
        call_problems = check_bsc_call(*value, self.expected, replay_errors)
        for problems in trial_problems:
            tally.record(per_trial, call_problems + problems)


# ------------------------------------------------------------------ lemmas-m12

LEMMA_ARGV = ["verify-lemmas", "--m-max", "12"]
LEMMA_LINES = {"info-set-rank": 12, "complement-span": 8, "lex-run-count": 12, "gray-run-bound": 12}
PLAN_M, PLAN_R, PLAN_D, PLAN_PE = 12, 6, 1, 5
PLAN_SAMPLE_ROWS = 8


def lex_run_problems() -> list[str]:
    """The benchmark's own run scan against C(m-1, r) at m=12."""
    problems = []
    for r in range(PLAN_M):
        runs = checks.lex_bounded_runs(PLAN_M, r)
        if runs != comb(PLAN_M - 1, r):
            problems.append(f"{runs} bounded runs at m={PLAN_M} r={r}, expected C({PLAN_M - 1}, {r})")
    return problems


def check_lemma_output(status: int, stdout: str) -> list[str]:
    problems = [] if status == 0 else [f"verify-lemmas exited {status}"]
    lines = [line for line in stdout.splitlines() if not line.startswith("#")]
    if "result=pass" not in lines:
        problems.append("verify-lemmas did not print result=pass")
    seen = {name: 0 for name in LEMMA_LINES}
    for line in lines:
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        if "check" not in fields:
            continue
        if fields.get("status") != "ok":
            problems.append(f"failed check line: {line}")
        if fields["check"] in seen:
            seen[fields["check"]] += 1
    problems += [
        f"{seen[name]} {name} lines, expected {want}"
        for name, want in LEMMA_LINES.items()
        if seen[name] != want
    ]
    return problems


class PlanReference:
    """What build_plan(12, 6) is checked against."""

    def __init__(self):
        self.k = checks.rm_dimension(PLAN_M, PLAN_R)
        self.dual = checks.rm_generators(PLAN_M, PLAN_M - PLAN_R - 1)


def check_plan12(ref: PlanReference, plan, rows: list[int]) -> list[str]:
    """k, the systematic identity block, and sampled rows in RM(12, 6)."""
    gen = plan.outer_gen
    if plan.k != ref.k or gen.nrows != ref.k or gen.ncols != 1 << PLAN_M:
        return [f"plan k={plan.k} generator {gen.nrows}x{gen.ncols}, expected k={ref.k}"]
    mask = (1 << ref.k) - 1
    values = gen.row_values
    problems = []
    if any(v & mask != 1 << i for i, v in enumerate(values)):
        problems.append("generator is not the identity on the first k columns")
    perm = plan.permutation.perm
    for i in rows:
        if not checks.orthogonal_to_all(checks.unpermute(values[i], perm), ref.dual):
            problems.append(f"generator row {i} is not in RM(12, 6)")
    return problems


class LemmasM12:
    """Structural checks and the m=12 plan build: no channel, no decoder."""

    name = "lemmas-m12"
    fresh_import = True

    def setup(self, lib):
        pass  # nothing is reused between operations

    def prepare(self, lib, seed: int):
        self.rows = random.Random(seed)
        self.run_problems = lex_run_problems()
        self.ref = PlanReference()

    def run_round(self, lib, tracer, tally: Tally):
        value, seconds, error = timed(tracer, lambda: run_cli(lib, LEMMA_ARGV))
        if error is not None:
            tally.record(seconds, [f"verify-lemmas raised {error!r}"], raised=True)
        else:
            status, stdout, _ = value
            tally.record(seconds, self.run_problems + check_lemma_output(status, stdout))

        spec = lib.RllSpec(PLAN_D)
        value, seconds, error = timed(
            tracer, lambda: lib.build_plan(PLAN_M, PLAN_R, spec, PLAN_PE)
        )
        rows = self.rows.sample(range(self.ref.k), PLAN_SAMPLE_ROWS)
        if error is not None:
            tally.record(seconds, [f"build_plan raised {error!r}"], raised=True)
        else:
            tally.record(seconds, check_plan12(self.ref, value, rows))


WORKLOADS = {w.name: w for w in (BecM10, BscM6, LemmasM12)}
