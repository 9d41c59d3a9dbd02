"""Checked-in ``DecodeResult`` corpus: every pinned decode is recomputed.

``decode_corpus.json`` lists groups of trials.  A group names a plan
(m, r, d, part exponent, inner order or null), a channel and its
parameter, a seed, a trial count and optional injected flips.  Trial t
draws everything from ``trial_stream(seed, t)``: the message, the
channel noise, then the flipped positions.  So the file holds no
observation, only the expected outcome of each trial, as one token:

- ``=``: the message, and it is the one sent;
- ``m<index>``: a different message (only on a flip channel or with
  injected flips);
- ``a``: ambiguous;
- ``p<i>``: failure at part i; ``o``: failure at the outer stage.

The corpus pins behaviour; it is not an oracle (``oracles.py`` is).  A
change that alters a pinned result regenerates the file with

    PYTHONPATH=src python tests/test_decode_corpus.py

and says which results changed and why.
"""

import json
from functools import lru_cache
from pathlib import Path

from rmrll.channels import BEC, BSC, ERASED, trial_stream
from rmrll.coset import build_plan, decode, encode
from rmrll.rll import RllSpec

CORPUS = Path(__file__).with_name("decode_corpus.json")

# (plan, channel, param, seed, trials, flips, where flips land); the
# plan is (m, r, d, part exponent, inner order or None)
README = (6, 2, 1, 3, 2)
ACCEPTANCE = (5, 2, 1, 2, 1)
GROUPS = [
    *[(README, "bec", p, 11, 60, 0, None) for p in (0.0, 0.1, 0.2, 0.3, 0.45, 0.6)],
    *[(ACCEPTANCE, "bec", p, 12, 60, 0, None) for p in (0.0, 0.2, 0.4, 0.6)],
    ((4, 1, 0, 2, None), "bec", 0.3, 13, 60, 0, None),
    ((7, 3, 2, 3, None), "bec", 0.15, 14, 60, 0, None),
    ((7, 3, 2, 3, None), "bec", 0.4, 15, 60, 0, None),
    ((8, 4, 3, 4, None), "bec", 0.1, 16, 60, 0, None),
    ((8, 4, 3, 4, None), "bec", 0.45, 17, 60, 0, None),
    ((9, 4, 2, 4, None), "bec", 0.1, 18, 60, 0, None),
    ((9, 4, 2, 4, None), "bec", 0.55, 19, 60, 0, None),
    ((10, 5, 1, 4, None), "bec", 0.05, 20, 80, 0, None),
    ((10, 5, 1, 4, None), "bec", 0.5, 21, 60, 0, None),
    # heavy erasure: every outcome must be ambiguous
    (README, "heavy", 0.9, 22, 40, 0, None),
    ((7, 3, 2, 3, None), "heavy", 1.0, 23, 20, 0, None),
    ((10, 5, 1, 4, None), "heavy", 0.95, 24, 10, 0, None),
    # injected flips on unerased bits: failures at the parts and outer
    (README, "bec", 0.05, 31, 80, 1, "parts"),
    (README, "bec", 0.05, 32, 80, 1, "prefix"),
    (README, "bec", 0.2, 33, 80, 2, "prefix"),
    (ACCEPTANCE, "bec", 0.1, 34, 60, 1, "prefix"),
    ((7, 3, 2, 3, None), "bec", 0.1, 35, 60, 1, "parts"),
    ((8, 4, 3, 4, None), "bec", 0.1, 36, 60, 1, "parts"),
    ((10, 5, 1, 4, None), "bec", 0.02, 37, 30, 1, "prefix"),
    ((10, 5, 1, 4, None), "bec", 0.02, 38, 30, 1, "parts"),
    # flip channel, within the exhaustive decoder's caps
    *[(README, "bsc", p, 41, 60, 0, None) for p in (0.0, 0.01, 0.03, 0.08)],
    *[(ACCEPTANCE, "bsc", p, 42, 60, 0, None) for p in (0.02, 0.1)],
    ((7, 2, 2, 3, None), "bsc", 0.02, 43, 40, 0, None),
    ((8, 3, 1, 4, None), "bsc", 0.01, 44, 30, 0, None),
]


@lru_cache(maxsize=None)
def plan_for(key):
    m, r, d, part_exponent, inner_order = key
    return build_plan(m, r, RllSpec(d), part_exponent, inner_order)


def outcomes(group) -> list[str]:
    """The outcome token of every trial of a group."""
    key, kind, param, seed, trials, flips, where = group
    plan = plan_for(tuple(key))
    channel = BSC(param) if kind == "bsc" else BEC(param)
    k, nbytes = plan.k, (plan.payload_bits + 7) // 8
    out = []
    for t in range(trials):
        rng = trial_stream(seed, t)
        message = int.from_bytes(rng.bytes(nbytes), "little") % (1 << plan.payload_bits)
        obs = channel.transmit(encode(message, plan).transmitted, rng)
        if flips:
            lo, hi = (0, k) if where == "prefix" else (k, obs.size)
            pos = lo + rng.choice(hi - lo, size=flips, replace=False)
            pos = pos[obs[pos] != ERASED]
            obs[pos] ^= 1
        result = decode(obs[:k], obs[k:], plan, channel)
        if result.status == "message":
            out.append("=" if result.message == message else f"m{result.message}")
        elif result.status == "ambiguous":
            out.append("a")
        elif result.stage == "outer":
            out.append("o")
        else:
            out.append("p" + result.stage.removeprefix("part:"))
    return out


def describe(group) -> str:
    key, kind, param, seed, trials, flips, where = group
    text = f"plan={list(key)} {kind}({param}) seed={seed}"
    return text + (f" flips={flips}@{where}" if flips else "")


def load():
    """(group, expected tokens) for every group in the corpus file."""
    return [
        ((tuple(g["group"][0]), *g["group"][1:]), g["expect"].split())
        for g in json.loads(CORPUS.read_text())["groups"]
    ]


def test_corpus_covers_every_outcome_kind():
    corpus = load()
    assert [group for group, _ in corpus] == GROUPS
    kinds = {t if t in ("=", "a", "o") else t[0] for _, want in corpus for t in want}
    assert kinds == {"=", "m", "a", "p", "o"}
    for group, want in corpus:
        _, kind, _, _, trials, _, _ = group
        assert len(want) == trials, describe(group)
        if kind == "heavy":
            assert set(want) == {"a"}, describe(group)


def test_every_decode_result_is_unchanged():
    mismatches = []
    for group, want in load():
        mismatches += [
            f"{describe(group)} trial {t}: expected {w}, got {g}"
            for t, (w, g) in enumerate(zip(want, outcomes(group)))
            if w != g
        ]
    assert not mismatches, "\n".join(mismatches[:10])


if __name__ == "__main__":
    lines = ",\n".join(
        json.dumps({"group": list(g), "expect": " ".join(outcomes(g))}) for g in GROUPS
    )
    CORPUS.write_text('{"groups": [\n' + lines + "\n]}\n")
