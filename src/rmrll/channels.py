"""Memoryless binary channels and Monte-Carlo error estimation.

Observations are int8 arrays over {0, 1, ERASED} where ERASED = -1
marks an erased symbol (values 0 and 1 are in the input alphabet).
Every trial draws from its own stream seeded by (master seed, trial
index), so estimates are reproducible and independent of evaluation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gf2 import BitWord

__all__ = [
    "ERASED",
    "binary_entropy",
    "BEC",
    "BSC",
    "trial_stream",
    "BlockErrorEstimate",
    "estimate_block_error",
    "estimate_bit_error",
]

ERASED = -1


def binary_entropy(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class BEC:
    """Binary erasure channel: each symbol erased independently."""

    erasure_prob: float

    def __post_init__(self):
        if not 0.0 <= self.erasure_prob <= 1.0:
            raise ValueError("erasure probability must lie in [0, 1]")

    @property
    def capacity(self) -> float:
        return 1.0 - self.erasure_prob

    def transmit(self, word: BitWord, rng: np.random.Generator) -> np.ndarray:
        out = word.to_array().astype(np.int8)
        out[rng.random(len(word)) < self.erasure_prob] = ERASED
        return out


@dataclass(frozen=True)
class BSC:
    """Binary symmetric channel: each symbol flipped independently."""

    flip_prob: float

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError("flip probability must lie in [0, 1]")

    @property
    def capacity(self) -> float:
        return 1.0 - binary_entropy(self.flip_prob)

    def transmit(self, word: BitWord, rng: np.random.Generator) -> np.ndarray:
        out = word.to_array().astype(np.int8)
        flips = rng.random(len(word)) < self.flip_prob
        out[flips] ^= 1
        return out


def trial_stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one trial of one experiment."""
    return np.random.default_rng([seed, index])


@dataclass(frozen=True)
class BlockErrorEstimate:
    trials: int
    errors: int
    wrong_messages: int  # decoder returned a message different from the truth

    @property
    def p_hat(self) -> float:
        return self.errors / self.trials

    @property
    def halfwidth(self) -> float:
        """95% normal-approximation confidence halfwidth."""
        p = self.p_hat
        return 1.96 * math.sqrt(p * (1.0 - p) / self.trials)


def _uniform_index(count: int, rng: np.random.Generator) -> int:
    """Uniform draw from range(count).  Counts beyond int64 (above 2**63)
    draw (count - 1).bit_length() random bits until the value fits."""
    if count <= 1 << 63:
        return int(rng.integers(count))
    bits = (count - 1).bit_length()
    while True:
        value = int.from_bytes(rng.bytes((bits + 7) // 8), "little") >> (-bits % 8)
        if value < count:
            return value


def estimate_block_error(
    encode: Callable[[int], BitWord],
    decode: Callable[[np.ndarray], int | None],
    message_count: int,
    channel,
    trials: int,
    seed: int,
) -> BlockErrorEstimate:
    """Monte-Carlo block error rate of an encode/decode pair.

    Each trial draws a uniform message, transmits its codeword, and
    counts an error when the decoder output (None meaning failure or
    ambiguity) differs from the message.  Wrong returned messages are
    tallied separately so silent mis-decodes can be detected.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if message_count < 1:
        raise ValueError("need a nonempty message set")
    errors = 0
    wrong = 0
    for t in range(trials):
        rng = trial_stream(seed, t)
        msg = _uniform_index(message_count, rng)
        obs = channel.transmit(encode(msg), rng)
        got = decode(obs)
        if got != msg:
            errors += 1
            if got is not None:
                wrong += 1
    return BlockErrorEstimate(trials=trials, errors=errors, wrong_messages=wrong)


def _posterior_weights(codebook: np.ndarray, channel, obs: np.ndarray) -> np.ndarray:
    """Unnormalized posterior over codebook rows given an observation."""
    if isinstance(channel, BSC):
        p = channel.flip_prob
        n = codebook.shape[1]
        dis = (codebook != obs).sum(axis=1)
        if p == 0.0:
            return (dis == 0).astype(float)
        if p == 1.0:
            return (dis == n).astype(float)
        ll = dis * math.log(p) + (n - dis) * math.log1p(-p)
        return np.exp(ll - ll.max())
    if isinstance(channel, BEC):
        visible = obs != ERASED
        if not visible.any():
            return np.ones(codebook.shape[0])
        match = (codebook[:, visible] == obs[visible]).all(axis=1)
        return match.astype(float)
    raise TypeError(f"unsupported channel {channel!r}")


def estimate_bit_error(
    encode: Callable[[int], BitWord],
    message_count: int,
    channel,
    trials: int,
    seed: int,
) -> float:
    """Monte-Carlo estimate of the symbol-wise posterior error rate.

    For each trial the exact per-coordinate posterior is computed by
    enumerating the codebook against the observation likelihood, and the
    trial contributes 1 minus the mean best-guess confidence over the
    coordinates.  Exhaustive enumeration limits the message space to
    2**16 entries.
    """
    if message_count < 1 or message_count > (1 << 16):
        raise ValueError("codebook enumeration supports at most 2**16 messages")
    if trials < 1:
        raise ValueError("need at least one trial")
    codebook = np.stack([encode(i).to_array() for i in range(message_count)])
    total = 0.0
    for t in range(trials):
        rng = trial_stream(seed, t)
        msg = int(rng.integers(message_count))
        obs = channel.transmit(encode(msg), rng)
        w = _posterior_weights(codebook, channel, obs)
        post_one = (w @ codebook) / w.sum()
        total += float(np.maximum(post_one, 1.0 - post_one).mean())
    return 1.0 - total / trials
