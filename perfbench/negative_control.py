"""Negative control for the benchmark's output checks.

    python3 perfbench/negative_control.py

Feeds each workload's checks one real output, then corrupted copies of
it (a flipped codeword bit, a wrong decoded message, a wrong plan fact,
an operation that raises) through the same ``Tally`` the benchmark
uses, and prints how each was counted.  A real output must count as
passed and every corrupted one as failed; the exit status is 0 when
all do and 1 otherwise.  Takes about ten seconds.
"""

from __future__ import annotations

import dataclasses
import random
import sys

import run
import workloads as wl


def count(problems: list[str], raised: bool = False) -> int:
    """Failed operations when one operation has these problems."""
    tally = wl.Tally()
    tally.record(0.0, problems, raised=raised)
    return tally.failed


def bec_cases(lib):
    workload = wl.BecM10()
    workload.setup(lib)
    workload.prepare(lib, 7)
    plan, ref, plan_problems = workload.plan, workload.ref, workload.plan_problems
    message = workload.messages.getrandbits(plan.payload_bits)
    tx, result = workload.trial(lib, message, 0)
    n = len(tx.outer_codeword)
    flipped = dataclasses.replace(
        tx, outer_codeword=lib.BitWord(tx.outer_codeword.value ^ (1 << (plan.k + 3)), n)
    )
    wrong = dataclasses.replace(result, status="message", message=message ^ 1)
    bad_plan = dataclasses.replace(plan, payload_bits=plan.payload_bits - 1)
    yield "bec-m10 real trial", 0, plan_problems + wl.check_bec_trial(ref, message, tx, result)
    yield "bec-m10 flipped outer codeword bit", 1, wl.check_bec_trial(ref, message, flipped, result)
    yield "bec-m10 wrong decoded message", 1, wl.check_bec_trial(ref, message, tx, wrong)
    yield "bec-m10 wrong plan fact (payload_bits)", 1, (
        wl.check_bec_plan(bad_plan, wl.bec_plan_facts())
        + wl.check_bec_trial(ref, message, tx, result)
    )


def with_csv_field(stdout: str, **changes) -> str:
    """coset-trial output with some fields of its CSV row replaced."""
    header, row = [line for line in stdout.splitlines() if not line.startswith("#")]
    fields = dict(zip(header.split(","), row.split(",")))
    fields.update({key: str(value) for key, value in changes.items()})
    return stdout.replace(row, ",".join(fields.values()))


def bsc_cases(lib):
    cli_seed = 7
    expected = wl.bsc_expected_row()
    status, stdout, stderr = wl.run_cli(lib, wl.BSC_ARGV + ["--seed", str(cli_seed)])
    trial_problems, replay_errors = wl.BscM6().replay(lib, cli_seed)
    yield "bsc-m6 real coset-trial call", 0, wl.check_bsc_call(
        status, stdout, stderr, expected, replay_errors
    ) + [p for ps in trial_problems for p in ps]
    bad_fact = with_csv_field(stdout, payload_bits=16)
    yield "bsc-m6 wrong plan fact in the CSV (payload_bits)", 1, wl.check_bsc_call(
        status, bad_fact, stderr, expected, replay_errors
    )
    errors = replay_errors + 1
    bad_count = with_csv_field(stdout, block_errors=errors, p_hat=f"{errors / wl.BSC_TRIALS:.6f}")
    yield "bsc-m6 block_errors off by one from the replay", 1, wl.check_bsc_call(
        status, bad_count, stderr, expected, replay_errors
    )

    # A decode that returns another message than the nearest one.
    plan = lib.build_plan(wl.BSC_M, wl.BSC_R, lib.RllSpec(wl.BSC_D), wl.BSC_PE, wl.BSC_IO)
    channel = lib.BSC(0.0)
    tx = lib.encode(12345, plan)
    obs = channel.transmit(tx.transmitted, lib.trial_stream(cli_seed, 0))
    k = plan.k
    result = lib.decode(obs[:k], obs[k:], plan, channel)
    wrong = dataclasses.replace(result, message=12346)
    yield "bsc-m6 real noiseless decode", 0, wl.check_bsc_trial(lib, plan, 12345, tx, obs, result)
    yield "bsc-m6 decoded message not the nearest", 1, wl.check_bsc_trial(
        lib, plan, 12345, tx, obs, wrong
    )


def lemma_cases(lib):
    status, stdout, _ = wl.run_cli(lib, wl.LEMMA_ARGV)
    yield "lemmas-m12 real verify-lemmas output", 0, wl.check_lemma_output(status, stdout)
    failing = stdout.replace("status=ok", "status=FAIL", 1)
    yield "lemmas-m12 one check line reports FAIL", 1, wl.check_lemma_output(status, failing)
    dropped = "\n".join(line for line in stdout.splitlines() if "m=12 " not in line)
    yield "lemmas-m12 m=12 check lines missing", 1, wl.check_lemma_output(status, dropped)

    ref = wl.PlanReference()
    plan = lib.build_plan(wl.PLAN_M, wl.PLAN_R, lib.RllSpec(wl.PLAN_D), wl.PLAN_PE)
    rows = random.Random(7).sample(range(ref.k), wl.PLAN_SAMPLE_ROWS)
    values = list(plan.outer_gen.row_values)
    values[rows[0]] ^= 1 << (ref.k + 5)
    flipped = dataclasses.replace(
        plan, outer_gen=lib.BinaryMatrix(values, plan.outer_gen.ncols)
    )
    yield "lemmas-m12 real build_plan(12, 6)", 0, wl.check_plan12(ref, plan, rows)
    yield "lemmas-m12 flipped generator bit", 1, wl.check_plan12(ref, flipped, rows)
    bad_k = dataclasses.replace(plan, k=plan.k - 1)
    yield "lemmas-m12 wrong plan fact (k)", 1, wl.check_plan12(ref, bad_k, rows)


def main() -> int:
    lib = run.import_rmrll()
    ok = True
    cases = [*bec_cases(lib), *bsc_cases(lib), *lemma_cases(lib)]
    for name, want, problems in cases:
        failed = count(problems)
        ok &= failed == want
        verdict = "ok" if failed == want else "WRONG"
        detail = f" ({problems[0]})" if problems else ""
        print(f"{verdict:5s} {name}: failed={failed} expected={want}{detail}")
    _, _, error = wl.timed(None, lambda: 1 // 0)
    failed = count([f"raised {error!r}"], raised=error is not None)
    ok &= failed == 1
    print(f"{'ok' if failed == 1 else 'WRONG':5s} an operation that raises: failed={failed} expected=1")
    print("negative control:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
