import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rmrll import rm
from rmrll.channels import BEC, BSC, ERASED, estimate_block_error
from rmrll.coset import (
    BSC_MAX_COSET_DIM,
    DecodeResult,
    bsc_threshold,
    build_plan,
    check_bsc_limits,
    coset_rate_lower_bound,
    crossover_capacity,
    decode,
    encode,
)
from rmrll.gf2 import BinaryMatrix, BitWord, _byte_tables
from rmrll.rll import (
    RllSpec,
    enumerative_decode,
    enumerative_encode,
    is_constrained,
    noiseless_capacity,
)
from rmrll.rm import RmCode, select_order

from oracles import (
    column_scan_rref,
    eliminated_inner_maps,
    grid_bisection_crossover,
    per_bit_gather,
    weight_order,
)


def observe(word, flips=(), erasures=()):
    obs = word.to_array().astype(np.int8)
    for i in flips:
        obs[i] ^= 1
    for i in erasures:
        obs[i] = ERASED
    return obs


def gather_decode_bec(prefix_obs, parts_obs, plan):
    """Reference erasure decoder: each stage solves on the submatrix of
    the unerased columns, gathered with column_submatrix."""

    def packed(bits):
        return sum(1 << j for j, b in enumerate(bits) if b == 1)

    dim, npart = plan.inner.k, plan.part_length
    tail_val = 0
    for i in range(plan.part_count):
        obs = parts_obs[i * npart : (i + 1) * npart]
        cols = [c for c in range(npart) if obs[c] != ERASED]
        sub = plan.inner.gen.column_submatrix(cols)
        sol = sub.solve_right(BitWord(packed(obs[cols]), len(cols)))
        if sol.status == "underdetermined":
            return DecodeResult("ambiguous")
        if sol.status == "inconsistent":
            return DecodeResult("failure", stage=f"part:{i}")
        tail_val |= sol.vector.value << (i * dim)
    k, length = plan.k, plan.outer_length
    tail_val &= (1 << (length - k)) - 1
    keep = [c for c in range(k) if prefix_obs[c] != ERASED]
    cols = keep + list(range(k, length))
    y = BitWord(packed(prefix_obs[keep]) | (tail_val << len(keep)), len(cols))
    sol = plan.outer_gen.column_submatrix(cols).solve_right(y)
    if sol.status == "underdetermined":
        return DecodeResult("ambiguous")
    if sol.status == "inconsistent":
        return DecodeResult("failure", stage="outer")
    w = sol.vector
    if not is_constrained(w, plan.spec):
        return DecodeResult("failure", stage="outer")
    index = enumerative_decode(w, plan.spec)
    if index >= 1 << plan.payload_bits:
        return DecodeResult("failure", stage="outer")
    return DecodeResult("message", message=index)


def prefix_table(plan):
    """(tail, prefix value) of every message index, in index order."""
    table = []
    for index in range(1 << plan.payload_bits):
        w = enumerative_encode(index, plan.k, plan.spec)
        table.append((plan.outer_gen.vecmat(w).value >> plan.k, w.value))
    return table


def scan_decode_bsc(prefix_obs, parts_obs, plan, table):
    """Reference flip-channel decoder: minimum distance per part, then a
    scan of every message index (``table`` from prefix_table) for the
    prefix nearest the observation among those with the decoded tail;
    ties go to the smaller index."""

    def packed(bits):
        return sum(1 << j for j, b in enumerate(bits) if b == 1)

    dim, npart = plan.inner.k, plan.part_length
    codebook = [plan.inner.encode(BitWord(u, dim)).value for u in range(1 << dim)]
    tail_val = 0
    for i in range(plan.part_count):
        yv = packed(parts_obs[i * npart : (i + 1) * npart])
        best_u = min(range(1 << dim), key=lambda u: (codebook[u] ^ yv).bit_count())
        tail_val |= best_u << (i * dim)
    tail_val &= (1 << (plan.outer_length - plan.k)) - 1
    yv = packed(prefix_obs)
    best, best_dist = None, None
    for index, (tail, w) in enumerate(table):
        if tail != tail_val:
            continue
        dist = (w ^ yv).bit_count()
        if best_dist is None or dist < best_dist:
            best, best_dist = index, dist
    if best is None:
        return DecodeResult("failure", stage="outer")
    return DecodeResult("message", message=best)


def small_plan():
    # inner length 8, dimension 1; 8 messages, quick to exhaust
    return build_plan(4, 1, RllSpec(1), part_exponent=2, inner_order=1)


class TestBuildPlan:
    def test_reference_plan_geometry(self):
        plan = build_plan(6, 2, RllSpec(1), 3, 2)
        assert plan.k == 22
        assert plan.outer_length == 64
        assert plan.inner.parent.m == 4
        assert plan.part_length == 16
        assert plan.inner.k == 4
        assert plan.part_count == 11
        assert plan.pad_bits == 2
        assert plan.payload_bits == 15
        assert plan.total_length == 198
        assert plan.realized_rate == pytest.approx(15 / 198)

    def test_numpy_integers_give_the_int_plan(self):
        int64 = np.int64
        for inner_order in (2, None):  # None: the selection rule picks the order
            want = build_plan(6, 2, RllSpec(1), 3, inner_order)
            inner64 = None if inner_order is None else int64(inner_order)
            got = build_plan(int64(6), int64(2), RllSpec(int64(1)), int64(3), inner64)
            assert dataclasses.replace(got, inner=None) == dataclasses.replace(want, inner=None)
            for field in dataclasses.fields(got):
                if field.type == "int":
                    assert type(getattr(got, field.name)) is int, field.name
            assert got.inner.gen == want.inner.gen and got.inner.points == want.inner.points
            assert encode(12345, got) == encode(12345, want)

    def test_non_integer_plan_parameters_rejected(self):
        for args in ((6.0, 2, 3), (6, 2.0, 3), (6, 2, 3.0)):
            with pytest.raises(ValueError, match="must be an integer"):
                build_plan(args[0], args[1], RllSpec(1), args[2], 2)
        with pytest.raises(ValueError, match="inner order must be an integer"):
            build_plan(6, 2, RllSpec(1), 3, 2.0)

    def test_wide_gap_plan_geometry(self):
        plan = build_plan(5, 2, RllSpec(3), 2, 2)
        assert plan.inner.parent.m == 5
        assert plan.part_length == 32
        assert plan.k == 16
        assert plan.inner.k == 1
        assert plan.part_count == 16
        assert plan.pad_bits == 0

    def test_default_inner_order_uses_selection_rule(self):
        plan = build_plan(6, 2, RllSpec(1), 3)
        assert plan.inner_order == select_order(4, 22 / 64)

    def test_systematic_prefix_is_identity(self):
        plan = small_plan()
        prefix_cols = plan.outer_gen.column_submatrix(range(plan.k))
        assert prefix_cols == BinaryMatrix([1 << i for i in range(plan.k)], plan.k)

    def test_permutation_sorts_by_weight_then_index(self):
        plan = build_plan(4, 1, RllSpec(1), 2, 1)
        perm = plan.permutation.perm
        keys = [(i.bit_count(), i) for i in perm]
        assert keys == sorted(keys)
        # consequently the first k coordinates are exactly the low-weight set
        assert {perm[j] for j in range(plan.k)} == {
            i for i in range(16) if i.bit_count() <= 1
        }

    def test_outer_generator_matches_column_scan_rref(self):
        for m in range(1, 11):
            for r in range(m + 1):  # r = m has no tail
                gathered = per_bit_gather(RmCode(m, r).gen.row_values, weight_order(m))
                want, want_pivots = column_scan_rref(gathered, 1 << m)
                for d in (1, 2):
                    z = RllSpec(d).anchor_count
                    plan = build_plan(m, r, RllSpec(d), max(1, m - 3), inner_order=z)
                    assert want_pivots == tuple(range(plan.k))
                    assert plan.outer_gen.row_values == want

    def test_outer_generator_matches_rref_at_large_m(self):
        # rref itself is pinned to the column-scan oracle in test_gf2
        for m, r in ((11, 5), (12, 6)):
            want, pivots = RmCode(m, r).gen.column_submatrix(weight_order(m)).rref()
            plan = build_plan(m, r, RllSpec(1), m - 3)
            assert pivots == tuple(range(plan.k))
            assert plan.outer_gen == want

    def test_inner_maps_match_elimination(self):
        # every inner code of exponent n <= 8 for d <= 3 and every inner
        # order; part exponent 1 gives n = m - 1 + z
        codes = 0
        for d in range(4):
            z = RllSpec(d).anchor_count
            for n in range(max(1, z), 9):
                for inner_order in range(z, n + 1):
                    plan = build_plan(n + 1 - z, 0, RllSpec(d), 1, inner_order)
                    maps = plan.inner_maps
                    pivots, rref, combos = eliminated_inner_maps(plan.inner.gen)
                    assert maps.pivots.tolist() == list(pivots)
                    assert maps.rref.row_values == rref
                    assert maps.to_message == _byte_tables(combos)
                    assert maps.to_codeword == _byte_tables(plan.inner.gen.row_values)
                    codes += 1
        assert codes == 136

    def test_inner_maps_need_no_elimination(self, monkeypatch):
        # nor a monomial evaluation: they read the inner code's own rows
        def eliminate(*args, **kwargs):
            raise AssertionError("inner maps eliminated or evaluated")

        plan = build_plan(6, 3, RllSpec(3), 2, 5)  # inner dimension 15
        monkeypatch.setattr(BinaryMatrix, "rref", eliminate)
        monkeypatch.setattr(BinaryMatrix, "solve_right", eliminate)
        monkeypatch.setattr(rm, "_and_products", eliminate)
        assert plan.inner_maps.pivots.size == plan.inner.k
        assert len(plan.inner_codebook) == 1 << plan.inner.k

    def test_each_generator_evaluated_once(self, monkeypatch):
        # one evaluation each for the inner code and the outer [I | P],
        # at the README plan and the m=10 erasure benchmark plan
        honest, calls = rm._and_products, []

        def counted(*args):
            calls.append(args[0])
            return honest(*args)

        monkeypatch.setattr(rm, "_and_products", counted)
        for args in ((6, 2, RllSpec(1), 3, 2), (10, 5, RllSpec(1), 4)):
            calls.clear()
            plan = build_plan(*args)
            assert plan.inner_maps.pivots.size == plan.inner.k
            assert sorted(calls) == sorted((plan.inner.parent.m, plan.m))

    def test_tail_rank_is_min_of_prefix_and_tail_length(self):
        # rank(P) = min(k, n - k) for every RM(m, r)
        for m in range(1, 10):
            for r in range(m + 1):
                plan = build_plan(m, r, RllSpec(1), m, inner_order=1)
                tail_length = plan.outer_length - plan.k
                assert plan.tail_rank == min(plan.k, tail_length)
                tail = [c for c in range(plan.outer_length) if plan.tail_mask >> c & 1]
                assert plan.tail_rank == plan.outer_gen.rank_of_columns(tail)

    def test_infeasible_plans_rejected(self):
        with pytest.raises(ValueError):
            build_plan(4, 1, RllSpec(1), 0)  # part exponent too small
        with pytest.raises(ValueError):
            build_plan(4, 1, RllSpec(1), 6)  # parts would be empty
        with pytest.raises(ValueError):
            build_plan(4, 1, RllSpec(1), 2, 0)  # inner order below anchor count
        with pytest.raises(ValueError):
            build_plan(4, 1, RllSpec(1), 2, 4)  # inner order above inner length

    def test_code_parameters_checked_before_part_exponent(self):
        # m and r are validated by the code's own checks first, so an
        # invalid code is not reported as a part exponent problem
        with pytest.raises(ValueError, match="m must be at least 1"):
            build_plan(0, 0, RllSpec(0), 1)
        with pytest.raises(ValueError, match="r must lie in 0..m"):
            build_plan(3, 5, RllSpec(1), 9)
        with pytest.raises(ValueError, match="part exponent too large"):
            build_plan(4, 1, RllSpec(1), 6)

    def test_full_order_needs_an_inner_order(self):
        # r = m leaves no tail, so the selection rule has no rate to use
        with pytest.raises(ValueError, match="no tail.*inner order"):
            build_plan(3, 3, RllSpec(1), 1)
        plan = build_plan(3, 3, RllSpec(1), 1, 1)
        assert plan.k == plan.outer_length and plan.part_count == 0


class TestEncode:
    def test_transmission_layout(self):
        plan = small_plan()
        tx = encode(5, plan)
        assert len(tx.prefix) == plan.k
        assert len(tx.parts) == plan.part_count
        assert all(len(p) == plan.part_length for p in tx.parts)
        assert len(tx.transmitted) == plan.total_length
        flat = tx.prefix
        for p in tx.parts:
            flat = flat.concat(p)
        assert tx.transmitted == flat

    def test_every_message_globally_constrained(self):
        for d in (1, 2, 3):
            spec = RllSpec(d)
            z = spec.anchor_count
            plan = build_plan(4, 2, spec, 2, z)
            for idx in range(1 << plan.payload_bits):
                tx = encode(idx, plan)
                assert is_constrained(tx.transmitted, spec)

    def test_parts_start_with_enough_zeros(self):
        plan = build_plan(6, 2, RllSpec(1), 3, 2)
        for idx in (0, 1, 17, 32767):
            tx = encode(idx, plan)
            for p in tx.parts:
                assert p[0] == 0  # anchored rows leave position 0 clear

    def test_coset_identity(self):
        plan = build_plan(6, 2, RllSpec(1), 3, 2)
        for idx in (0, 5, 1234, 32767):
            tx = encode(idx, plan)
            w = enumerative_encode(idx, plan.k, plan.spec)
            # clearing the tail leaves the message prefix padded with zeros
            head = tx.outer_codeword.value & ((1 << plan.k) - 1)
            assert head == w.value
            assert tx.prefix == w

    def test_prefix_equals_codeword_head(self):
        plan = small_plan()
        tx = encode(3, plan)
        assert tx.outer_codeword[: plan.k] == tx.prefix

    def test_table_encode_matches_inner_encode(self):
        def check(plan, u):
            maps, dim = plan.inner_maps, plan.inner.k
            want = plan.inner.encode(BitWord(u, dim)).value
            assert maps.codeword(u) == want
            # the pivot bits map back to the message
            v = sum((want >> p & 1) << j for j, p in enumerate(maps.pivots.tolist()))
            assert maps.message(v) == u

        for plan in (
            small_plan(),
            build_plan(5, 2, RllSpec(1), 2, 2),
            build_plan(4, 2, RllSpec(2), 2, 2),
            build_plan(5, 3, RllSpec(2), 2, 3),
            build_plan(6, 2, RllSpec(1), 3, 2),
            build_plan(6, 3, RllSpec(3), 2, 5),  # dimension 15: two tables
        ):
            for u in range(1 << plan.inner.k):
                check(plan, u)
        plan = build_plan(10, 5, RllSpec(1), 4)
        messages = random.Random(10)
        for _ in range(200):
            check(plan, messages.getrandbits(plan.inner.k))
        # the transmitted parts are the inner encodings of the tail slices
        tx = encode(messages.getrandbits(plan.payload_bits), plan)
        dim, tail = plan.inner.k, tx.outer_codeword.value >> plan.k
        for i, part in enumerate(tx.parts):
            u = BitWord(tail >> (i * dim) & ((1 << dim) - 1), dim)
            assert part == plan.inner.encode(u)

    def test_message_range_checked(self):
        plan = small_plan()
        with pytest.raises(ValueError):
            encode(1 << plan.payload_bits, plan)
        with pytest.raises(ValueError):
            encode(-1, plan)
        # a float is not truncated to the index below it; numpy ints pass
        for message in (3.5, 3.0, np.float64(3.0)):
            with pytest.raises(ValueError, match="index must be an integer"):
                encode(message, plan)
        assert encode(np.int64(3), plan) == encode(3, plan)


class TestDecodeBec:
    def test_noiseless_exhaustive(self):
        plan = small_plan()
        ch = BEC(0.0)
        for idx in range(1 << plan.payload_bits):
            tx = encode(idx, plan)
            obs = observe(tx.transmitted)
            res = decode(obs[: plan.k], obs[plan.k :], plan, ch)
            assert res.is_message and res.message == idx

    def test_recovers_from_prefix_erasures(self):
        plan = build_plan(6, 2, RllSpec(1), 3, 2)
        ch = BEC(0.1)
        tx = encode(777, plan)
        obs = observe(tx.transmitted, erasures=[0, 3, 8])
        res = decode(obs[: plan.k], obs[plan.k :], plan, ch)
        assert res.is_message and res.message == 777

    def test_recovers_from_part_erasures(self):
        plan = build_plan(6, 2, RllSpec(1), 3, 2)
        ch = BEC(0.1)
        tx = encode(12345, plan)
        # a few erasures inside the first part still leave it solvable
        obs = observe(tx.transmitted, erasures=[plan.k + 1, plan.k + 6])
        res = decode(obs[: plan.k], obs[plan.k :], plan, ch)
        assert res.is_message and res.message == 12345

    def test_fully_erased_part_is_ambiguous(self):
        plan = small_plan()
        tx = encode(2, plan)
        obs = observe(
            tx.transmitted, erasures=range(plan.k, plan.k + plan.part_length)
        )
        res = decode(obs[: plan.k], obs[plan.k :], plan, BEC(0.5))
        assert res.status == "ambiguous"
        assert not res.is_message

    def test_everything_erased_is_ambiguous(self):
        plan = small_plan()
        tx = encode(2, plan)
        obs = observe(tx.transmitted, erasures=range(plan.total_length))
        res = decode(obs[: plan.k], obs[plan.k :], plan, BEC(0.5))
        assert res.status == "ambiguous"

    def test_corrupted_part_reports_its_stage(self):
        plan = small_plan()
        tx = encode(2, plan)
        obs = observe(tx.transmitted, flips=[plan.k + plan.part_length])
        res = decode(obs[: plan.k], obs[plan.k :], plan, BEC(0.0))
        assert res.status == "failure"
        assert res.stage == "part:1"

    def test_wholesale_part_substitution_fails_outer_stage(self):
        plan = small_plan()
        tx = encode(2, plan)
        other = plan.inner.encode(BitWord((1 << plan.inner.k) - 1, plan.inner.k))
        if other == tx.parts[0]:
            other = plan.inner.encode(BitWord(0, plan.inner.k))
        obs_parts = list(tx.parts)
        obs_parts[0] = other
        flat = tx.prefix
        for p in obs_parts:
            flat = flat.concat(p)
        obs = observe(flat)
        res = decode(obs[: plan.k], obs[plan.k :], plan, BEC(0.0))
        assert res.status == "failure"
        assert res.stage == "outer"

    def test_matches_gather_reference(self):
        def check(plan, tx, flips=(), erasures=()):
            obs = observe(tx.transmitted, flips=flips, erasures=erasures)
            got = decode(obs[: plan.k], obs[plan.k :], plan, BEC(0.3))
            assert got == gather_decode_bec(obs[: plan.k], obs[plan.k :], plan)
            return got.status

        plans = [
            small_plan(),
            build_plan(5, 2, RllSpec(1), 2, 2),
            build_plan(4, 2, RllSpec(2), 2, 2),
            build_plan(5, 3, RllSpec(2), 2, 3),
            build_plan(4, 2, RllSpec(1), 4, 1),  # parts of 2 bits
            build_plan(4, 2, RllSpec(1), 3, 2),  # parts of 4 bits
        ]
        rng = np.random.default_rng(2024)
        statuses = set()
        for plan in plans:
            for trial in range(60):
                tx = encode(int(rng.integers(1 << plan.payload_bits)), plan)
                n = plan.total_length
                erasures = np.flatnonzero(rng.random(n) < rng.choice([0.05, 0.3, 0.6]))
                flips = np.flatnonzero(rng.random(n) < 0.02) if trial % 3 == 0 else ()
                statuses.add(check(plan, tx, flips, erasures))
        assert statuses == {"message", "ambiguous", "failure"}

        # k = 163 > n - k = 93, so rank(P_E) < |E| once more than 93
        # prefix bits are erased, as ``heavy`` always does.  The 16 points
        # with x5..x8 = 0 all have weight <= 4, so they sit in the prefix,
        # and their indicator is an RM(8, 4) codeword with a zero tail:
        # erasing them leaves P_E rank-deficient with only 16 erasures.
        plan = build_plan(8, 4, RllSpec(1), 3)
        assert plan.k > plan.outer_length - plan.k
        k, n = plan.k, plan.total_length
        flat = [j for j in range(k) if plan.permutation.perm[j] < 16]
        messages = random.Random(2025)
        statuses = set()
        for trial in range(8):
            tx = encode(messages.getrandbits(plan.payload_bits), plan)
            light = np.flatnonzero(rng.random(n) < 0.03)
            heavy = rng.choice(k, size=plan.outer_length - k + 5, replace=False)
            flips = rng.choice(k, size=3, replace=False)
            got = [
                check(plan, tx),  # nothing erased
                check(plan, tx, erasures=light),
                check(plan, tx, erasures=np.union1d(flat, light)),
                check(plan, tx, erasures=heavy),
                check(plan, tx, erasures=range(k)),  # the whole prefix
                check(plan, tx, flips=flips, erasures=light),
            ]
            assert got[0] == "message" and set(got[2:5]) == {"ambiguous"}
            statuses.update(got)
        assert statuses == {"message", "ambiguous", "failure"}

        # inner dimensions that span several byte tables and are not
        # multiples of 8: 22 (10 pad bits) at m = 10, and 26 at d = 3 (z = 2)
        for plan in (build_plan(10, 5, RllSpec(1), 4), build_plan(7, 3, RllSpec(3), 2, 5)):
            assert plan.inner.k % 8 and plan.inner.k > 16
            k, npart = plan.k, plan.part_length
            pivots = plan.inner_maps.pivots.tolist()
            others = [c for c in range(npart) if c not in pivots]
            covered = 0
            for row in plan.inner.gen.row_values:
                covered |= row
            dead = [c for c in range(npart) if not covered >> c & 1]  # 0 in every codeword
            assert dead and not set(dead) & set(pivots)
            for trial in range(6):
                tx = encode(messages.getrandbits(plan.payload_bits), plan)
                i = trial % plan.part_count
                base = k + i * npart
                zero = base + dead[trial % len(dead)]
                # other non-pivot columns of part i, some erased
                spare = rng.choice(others, size=npart // 4, replace=False) + base
                spare = spare[spare != zero]
                flip = int(spare[0])
                fail = DecodeResult("failure", stage=f"part:{i}")
                # no erased pivot, one flipped unerased non-pivot bit
                obs = observe(tx.transmitted, flips=[flip], erasures=spare[1:])
                assert decode(obs[:k], obs[k:], plan, BEC(0.1)) == fail
                assert check(plan, tx, flips=[flip], erasures=spare[1:]) == "failure"
                # a flip where every inner codeword is 0, with and without
                # erased pivots
                lost = rng.choice(pivots, size=1 + trial, replace=False) + base
                for erasures in ((), lost, np.union1d(lost, spare[1:])):
                    obs = observe(tx.transmitted, flips=[zero], erasures=erasures)
                    assert decode(obs[:k], obs[k:], plan, BEC(0.1)) == fail
                    assert check(plan, tx, flips=[zero], erasures=erasures) == "failure"
                # every pivot of part i erased.  At m = 10 the part code is
                # RM(6, 2) on the odd coordinates and its pivots are the
                # points of weight <= 2, so the rest has full rank (the
                # tail_rank argument); at d = 3 RM(5, 3) keeps rank 6 there
                all_pivots = np.array(pivots) + base
                want = "message" if plan.m == 10 else "ambiguous"
                assert check(plan, tx, erasures=all_pivots) == want
                check(plan, tx, erasures=np.union1d(all_pivots, spare[1:]))

    def test_no_wrong_message_at_large_m(self):
        # erasures alone never turn into a wrong message, whatever the
        # rate; the rates are chosen so that decodes also fail or stay
        # ambiguous
        for plan in (build_plan(8, 4, RllSpec(1), 3), build_plan(10, 5, RllSpec(1), 4)):

            def dec(obs, plan=plan):
                result = decode(obs[: plan.k], obs[plan.k :], plan, BEC(0.1))
                return result.message if result.is_message else None

            errors = 0
            for eps in (0.05, 0.3, 0.5):
                est = estimate_block_error(
                    lambda i, plan=plan: encode(i, plan).transmitted,
                    dec,
                    1 << plan.payload_bits,
                    BEC(eps),
                    12,
                    plan.m,
                )
                assert est.wrong_messages == 0
                errors += est.errors
            assert 0 < errors < 36

    def test_shape_validation(self):
        plan = small_plan()
        tx = encode(0, plan)
        obs = observe(tx.transmitted)
        with pytest.raises(ValueError):
            decode(obs[: plan.k - 1], obs[plan.k :], plan, BEC(0.0))
        with pytest.raises(ValueError):
            decode(obs[: plan.k], obs[plan.k : -1], plan, BEC(0.0))

    def test_unsupported_channel(self):
        plan = small_plan()
        tx = encode(0, plan)
        obs = observe(tx.transmitted)
        with pytest.raises(TypeError):
            decode(obs[: plan.k], obs[plan.k :], plan, "awgn")

    def test_symbols_outside_the_alphabet_rejected(self):
        # in the prefix and in the parts; ERASED only on the erasure channel
        plan = build_plan(6, 2, RllSpec(1), 3, 2)
        obs = observe(encode(12345, plan).transmitted)
        sevens = np.where(obs == 0, 7, obs)
        half = obs.astype(float)
        half[plan.k + 1] = 0.5
        erased = observe(encode(12345, plan).transmitted, erasures=[3])
        cases = ((BEC(0.0), sevens), (BEC(0.0), half), (BSC(0.01), sevens), (BSC(0.01), erased))
        for channel, bad in cases:
            with pytest.raises(ValueError, match="observation symbols"):
                decode(bad[: plan.k], bad[plan.k :], plan, channel)
        assert decode(erased[: plan.k], erased[plan.k :], plan, BEC(0.0)).message == 12345
        assert decode(obs[: plan.k], obs[plan.k :], plan, BSC(0.01)).message == 12345


@st.composite
def feasible_plans(draw):
    """A plan with m <= 6 and d in {1, 2, 3}; configurations that
    build_plan rejects are redrawn."""
    spec = RllSpec(draw(st.sampled_from((1, 2, 3))))
    m = draw(st.integers(1, 6))
    r = draw(st.integers(0, m))
    part_exponent = draw(st.integers(1, m))
    n_inner = m - part_exponent + spec.anchor_count
    inner_order = draw(st.none() | st.integers(spec.anchor_count, n_inner))
    try:
        return build_plan(m, r, spec, part_exponent, inner_order)
    except ValueError:
        reject()


class TestNoiselessRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(feasible_plans(), st.data())
    def test_both_channels_return_the_message(self, plan, data):
        message = data.draw(st.integers(0, (1 << plan.payload_bits) - 1))
        obs = observe(encode(message, plan).transmitted)
        want = DecodeResult("message", message=message)
        assert decode(obs[: plan.k], obs[plan.k :], plan, BEC(0.0)) == want
        try:
            check_bsc_limits(plan)
        except ValueError:
            return  # the flip-channel decoder refuses the plan
        assert decode(obs[: plan.k], obs[plan.k :], plan, BSC(0.0)) == want


class TestDecodeBsc:
    def test_noiseless_exhaustive(self):
        plan = small_plan()
        ch = BSC(0.0)
        for idx in range(1 << plan.payload_bits):
            tx = encode(idx, plan)
            obs = observe(tx.transmitted)
            res = decode(obs[: plan.k], obs[plan.k :], plan, ch)
            assert res.is_message and res.message == idx

    def test_single_flip_in_part_corrected(self):
        # the inner code of the small plan has minimum distance 4
        plan = small_plan()
        tx = encode(3, plan)
        obs = observe(tx.transmitted, flips=[plan.k + 2])
        res = decode(obs[: plan.k], obs[plan.k :], plan, BSC(0.01))
        assert res.is_message and res.message == 3

    def test_decode_is_deterministic(self):
        plan = small_plan()
        tx = encode(4, plan)
        obs = observe(tx.transmitted, flips=[0, 1])
        a = decode(obs[: plan.k], obs[plan.k :], plan, BSC(0.1))
        b = decode(obs[: plan.k], obs[plan.k :], plan, BSC(0.1))
        assert a == b
        assert a.is_message  # minimum-distance decoding always answers

    def test_matches_scan_reference(self):
        # k <= n - k: the tail fixes the prefix (rank P = k); k > n - k:
        # the prefixes with one tail form a coset of ker(P) of dimension
        # k - rank P (6, 6, 20, 14, 6 and 6 for the last six plans)
        plans = [
            small_plan(),
            build_plan(5, 2, RllSpec(1), 2, 2),
            build_plan(5, 2, RllSpec(2), 2, 2),
            build_plan(3, 2, RllSpec(1), 1, 1),
            build_plan(4, 2, RllSpec(2), 2, 2),
            build_plan(5, 3, RllSpec(2), 2, 3),
            build_plan(4, 3, RllSpec(1), 2, 2),
            build_plan(4, 2, RllSpec(1), 4, 1),  # parts of 2 bits
            build_plan(4, 2, RllSpec(1), 3, 2),  # parts of 4 bits
        ]
        rng = np.random.default_rng(77)
        outcomes = set()
        for plan in plans:
            table = prefix_table(plan)
            for trial in range(50):
                tx = encode(int(rng.integers(1 << plan.payload_bits)), plan)
                n = plan.total_length
                flips = np.flatnonzero(rng.random(n) < rng.choice([0.02, 0.1, 0.25]))
                obs = observe(tx.transmitted, flips=flips)
                got = decode(obs[: plan.k], obs[plan.k :], plan, BSC(0.1))
                want = scan_decode_bsc(obs[: plan.k], obs[plan.k :], plan, table)
                assert got == want
                outcomes.add((got.status, got.stage))
        assert outcomes == {("message", None), ("failure", "outer")}

    def test_coset_beyond_payload_cap(self):
        # 64 payload bits, but rank P = k: one candidate per tail
        plan = build_plan(8, 3, RllSpec(1), 4)
        assert plan.payload_bits > BSC_MAX_COSET_DIM
        assert plan.tail_rank == plan.k
        check_bsc_limits(plan)
        message = (1 << plan.payload_bits) - 12345
        tx = encode(message, plan)
        obs = observe(tx.transmitted, flips=[0, 5, plan.k + 3])
        res = decode(obs[: plan.k], obs[plan.k :], plan, BSC(0.01))
        assert res.is_message and res.message == message

    def test_cap_bounds_coset_dimension(self):
        plan = build_plan(8, 4, RllSpec(1), 4)
        assert plan.k - plan.tail_rank == 70
        with pytest.raises(ValueError, match=r"k - rank\(P\) <= 20.*plan has 70"):
            check_bsc_limits(plan)
        obs = np.zeros(plan.total_length, dtype=np.int8)
        with pytest.raises(ValueError, match="plan has 70"):
            decode(obs[: plan.k], obs[plan.k :], plan, BSC(0.01))


class TestRateBound:
    def test_frozen_value(self):
        spec = RllSpec(1)
        got = coset_rate_lower_bound(noiseless_capacity(spec), 0.9, spec, 50)
        assert got == pytest.approx(0.55677, abs=1e-4)

    def test_perfect_channel_approaches_noiseless_capacity(self):
        spec = RllSpec(1)
        c0 = noiseless_capacity(spec)
        got = coset_rate_lower_bound(c0, 1.0, spec, 50)
        assert got == pytest.approx(c0, abs=1e-3)

    def test_perfect_channel_value_for_every_exponent(self):
        # C0 / (1 + 2**(z - part_exponent)), also where 2**-z and
        # 2**-part_exponent are below the smallest float
        c0 = 0.5
        for d, pe in ((1, 50), (2**59, 70), (2**1080, 1081), (2**1080, 2000), (2**1200, 1201)):
            spec = RllSpec(d)
            want = c0 / (1 + 2.0 ** (spec.anchor_count - pe))
            assert coset_rate_lower_bound(c0, 1.0, spec, pe) == want
        assert coset_rate_lower_bound(c0, 1.0, RllSpec(2**1080), 10) == 0.0
        assert coset_rate_lower_bound(c0, 0.5, RllSpec(2**1080), 2000) == 0.0

    def test_monotone_in_capacity(self):
        spec = RllSpec(2)
        c0 = noiseless_capacity(spec)
        vals = [coset_rate_lower_bound(c0, c / 20, spec, 30) for c in range(1, 21)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        spec = RllSpec(1)
        with pytest.raises(ValueError):
            coset_rate_lower_bound(0.69, 0.0, spec, 50)
        with pytest.raises(ValueError):
            coset_rate_lower_bound(1.2, 0.5, spec, 50)
        with pytest.raises(ValueError):
            coset_rate_lower_bound(0.69, 0.5, spec, 0)


class TestCrossover:
    def test_frozen_value_d1(self):
        got = crossover_capacity(RllSpec(1), 50)
        assert got == pytest.approx(0.7613, abs=1e-3)

    def test_matches_quadratic_root(self):
        # with the 2^-tau term negligible the crossover solves
        # C^2 - 2 (1 + C0) C + 2 = 0 for d = 1
        c0 = noiseless_capacity(RllSpec(1))
        root = (1 + c0) - math.sqrt((1 + c0) ** 2 - 2)
        assert crossover_capacity(RllSpec(1), 50) == pytest.approx(root, abs=1e-12)

    def test_gap_changes_sign_at_crossover(self):
        for d in (1, 2, 3, 5):
            spec = RllSpec(d)
            c0 = noiseless_capacity(spec)
            cstar = crossover_capacity(spec, 40)
            assert cstar is not None

            def gap(c):
                return coset_rate_lower_bound(c0, c, spec, 40) - c * 2.0 ** (
                    -spec.anchor_count
                )

            assert gap(cstar - 1e-9) < 0 < gap(cstar + 1e-9), d

    def test_matches_grid_bisection(self):
        for d in range(41):
            for pe in range(1, 61):
                got = crossover_capacity(RllSpec(d), pe)
                want = grid_bisection_crossover(RllSpec(d), pe, 1e-14)
                assert (got is None) == (want is None), (d, pe)
                assert got is None or abs(got - want) <= 1e-12, (d, pe)

    def test_existence_matches_grid_bisection_for_huge_parameters(self):
        # q(1) in floats decides wrongly at d = 2^60, tau >= 55, and
        # 2^-z + 2^-tau < C0 at d = 10^400, tau = 1100 (C0 is capped at d = 2^1023)
        huge_d = (100, 1000, 5000, 10**6, 2**60, 10**400, 2**1080)
        huge_pe = (100, 1100, 2000, 10**400)
        pairs = [(d, pe) for d in huge_d for pe in (*range(1, 70), *huge_pe)]
        pairs += [(d, pe) for d in range(70) for pe in huge_pe]
        for d, pe in pairs:
            got = crossover_capacity(RllSpec(d), pe)
            want = grid_bisection_crossover(RllSpec(d), pe, 1e-6)
            assert (got is None) == (want is None), (d, pe)

    def test_part_exponent_validation(self):
        with pytest.raises(ValueError, match="part exponent"):
            crossover_capacity(RllSpec(1), 0)

    def test_unconstrained_has_no_crossover(self):
        assert crossover_capacity(RllSpec(0), 50) is None

    def test_bsc_threshold_frozen(self):
        cstar = crossover_capacity(RllSpec(1), 50)
        assert bsc_threshold(cstar) == pytest.approx(0.0392, abs=1e-3)

    def test_bsc_threshold_inverts_capacity(self):
        for c in (0.2, 0.5, 0.9):
            p = bsc_threshold(c)
            assert BSC(p).capacity == pytest.approx(c, abs=1e-7)

    def test_bsc_threshold_validation(self):
        with pytest.raises(ValueError):
            bsc_threshold(1.5)
