import io
import itertools
import json
import math
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest

from sofic import (
    ExplicitQuotient,
    GroupRingElement,
    entropy_trace,
    fix_count,
    involution,
    left_translate,
    log_big_int,
    parse_laurent,
    parse_word,
    torus_quotient,
)
from sofic import algebraic, companion
from sofic.algebraic import _character_primes
from sofic.groups import ResourceGuardError, TorusQuotient

import helpers
from helpers import (
    NotInvertibleError,
    count_solutions,
    count_torus_solutions_brute,
    cyclic_table,
    det3_cofactor,
    det_abs_exact,
    det_bareiss,
    det_fraction,
    every_character_count,
    fk_determinant_quotient,
    heisenberg_table,
    rank_fraction,
    regular_rep_matrix,
    relabel_table,
    s3_table,
    sl2_table,
    smith_normal_form,
)


# ---------------------------------------------------------------------------
# regular representation matrices


def test_scalar_gives_identity_multiple():
    f = parse_laurent("3", 1)
    m = regular_rep_matrix(f, torus_quotient([4]))
    assert m.tolist() == [[3 if i == j else 0 for j in range(4)] for i in range(4)]
    f2 = parse_laurent("3", 2)
    m2 = regular_rep_matrix(f2, torus_quotient([2, 2]))
    assert m2.tolist() == [[3 if i == j else 0 for j in range(4)] for i in range(4)]


def test_circulant_structure_example():
    f = parse_laurent("x - 2", 1)
    m = regular_rep_matrix(f, torus_quotient([3]))
    assert m.tolist() == [[-2, 0, 1], [1, -2, 0], [0, 1, -2]]


def test_degenerate_quotient_folds_fibers():
    f = parse_laurent("x - 2", 1)
    m = regular_rep_matrix(f, torus_quotient([1]))
    assert m.tolist() == [[-1]]


def test_circulant_invariant_and_row_sums():
    rng = random.Random(5)
    for moduli in ([6], [2, 3]):
        q = torus_quotient(moduli)
        rank = len(moduli)
        for _ in range(10):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                if rank == 1:
                    key = rng.randint(-4, 4)
                else:
                    key = (rng.randint(-2, 2), rng.randint(-2, 2))
                terms[key] = rng.randint(-5, 5)
            f = GroupRingElement(rank, terms)
            rows = regular_rep_matrix(f, q).tolist()
            total = sum(f.terms.values())
            assert [sum(row) for row in rows] == [total] * q.size
            # entries[a][b] depends only on a * b^-1
            fhat = {}
            for s, c in f.terms.items():
                fhat[q.index(s)] = fhat.get(q.index(s), 0) + c
            for a in range(q.size):
                for b in range(q.size):
                    ea, eb = q.exponent(a), q.exponent(b)
                    diff = ea - eb if rank == 1 else tuple(x - y for x, y in zip(ea, eb))
                    assert rows[a][b] == fhat.get(q.index(diff), 0)


def test_matrix_size_guard(monkeypatch):
    f = parse_laurent("x - 2", 1)
    with pytest.raises(ResourceGuardError):
        regular_rep_matrix(f, torus_quotient([2000]))
    # the oracle's own constant is the one consulted
    monkeypatch.setattr(helpers, "MATRIX_ENTRIES_CAP", 24)
    with pytest.raises(ResourceGuardError, match="5x5"):
        regular_rep_matrix(f, torus_quotient([5]))
    assert regular_rep_matrix(f, torus_quotient([4])).dim == 4


# ---------------------------------------------------------------------------
# exact determinants


def test_det_examples():
    assert det_abs_exact([[1, 2], [3, 4]]) == 2
    assert det_abs_exact([[5, 0, 0], [0, 5, 0], [0, 0, 5]]) == 125
    circulant = [[-2, 0, 1], [1, -2, 0], [0, 1, -2]]
    assert det_abs_exact(circulant) == abs(det3_cofactor(circulant)) == 7


def test_det_paths_agree_with_fraction_oracle():
    rng = random.Random(17)
    for _ in range(250):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expected = abs(det_fraction(rows))
        assert abs(det_bareiss(rows)) == expected
        assert det_abs_exact(rows) == expected


def test_det_large_matrix_matches_bareiss():
    # n = 150 needs 24 primes, eliminated two per batched pass
    rng = random.Random(23)
    n = 150
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    assert det_abs_exact(rows) == abs(det_bareiss(rows))


def _det_battery():
    """Seeded matrices that stress the modular kernel, by kind."""
    rng = random.Random(131)
    p = 2**31 - 1  # the first prime of the supply

    def rand(n, lo=-9, hi=9):
        return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]

    yield "empty", []
    for v in (0, 1, -1, 7, -(2**80), p, 3 * p):
        yield "1x1", [[v]]
    for _ in range(8):
        n = rng.randint(2, 6)
        rows = rand(n)
        rows[rng.randrange(n)] = [0] * n
        yield "zero row", rows
        rows = rand(n)
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
        yield "zero column", rows
        # multiples of the first prime vanish mod it: other pivots, other
        # row swaps there, and a zero residue whenever all of a column does
        rows = rand(n)
        for row in rows:
            for j in range(n):
                if rng.random() < 0.5:
                    row[j] *= p
        rows[0][0] = p * rng.choice((-2, -1, 1, 2))  # no first pivot mod p
        yield "multiples of 2^31 - 1", rows
        yield "all multiples of 2^31 - 1", [[v * p for v in row] for row in rand(n)]
        yield "beyond 2^63", rand(n, -(2**70), 2**70)
        rows = rand(n, -(2**64), 2**64)
        rows[0][0] = 2**63
        yield "beyond 2^63", rows
        rows = rand(n)
        weights = [rng.randint(-3, 3) for _ in range(n - 1)]
        rows[-1] = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)]
        yield "rank deficient", rows
        rows = rand(n)
        rows[0], rows[1] = rows[1], rows[0]
        yield "swapped rows", rows


def test_det_kernel_differential_battery():
    kinds = {}
    negative = 0
    for kind, rows in _det_battery():
        want = det_fraction(rows)
        assert det_bareiss(rows) == want, kind
        assert det_abs_exact(rows) == abs(want), (kind, rows)
        kinds[kind] = kinds.get(kind, 0) + 1
        negative += want < 0
    assert negative >= 10
    assert kinds["rank deficient"] == 8


def _kernel_rank_stacks():
    """Seeded stacks of m x m matrices, m = 1..7, mixing in each stack the
    kinds of matrix that exercise the kernel's pivot search."""
    rng = random.Random(137)

    def rand(rows, cols, top=3):
        return [[rng.randint(-top, top) for _ in range(cols)] for _ in range(rows)]

    def low_rank(m, r):
        # A B with A m x r and B r x m
        a, b = rand(m, r, 1), rand(r, m, 1)
        return [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(m)]
                for i in range(m)]

    for m in range(1, 8):
        stack = []
        for _ in range(3):
            stack.append(("random", rand(m, m)))
            stack.append(("low rank", low_rank(m, rng.randint(0, m - 1))))
            rows = rand(m, m)
            for row in rows:
                row[0] = 0
            stack.append(("zero first column", rows))
            rows = rand(m, m)
            k = rng.randint(0, m - 1)
            for i in range(k, m):
                rows[i][k:] = [0] * (m - k)
            stack.append(("zero trailing block", rows))
            if m >= 2:
                # column 0 is nonzero only at row t > 0 and column 1 only
                # there too: a row swap at c = 0, then a column search at c = 1
                rows = rand(m, m)
                t = rng.randint(1, m - 1)
                for i, row in enumerate(rows):
                    if i != t:
                        row[0] = row[1] = 0
                rows[t][0] = rng.choice((-3, -2, -1, 1, 2, 3))
                stack.append(("column swap after row swap", rows))
        stack.append(("all zero", [[0] * m for _ in range(m)]))
        rng.shuffle(stack)
        yield m, stack


def test_det_kernel_rank_battery():
    p = 2**31 - 1
    kinds = {}
    full = 0
    for m, stack in _kernel_rank_stacks():
        a = np.array([[[v % p for v in row] for row in rows] for _, rows in stack],
                     dtype=np.int64).reshape(len(stack), m, m)
        dets, ranks = algebraic._det_mod_batched(a, np.full(len(stack), p, dtype=np.int64))
        for (kind, rows), det, rank in zip(stack, dets.tolist(), ranks.tolist()):
            # every nonzero minor is below p by Hadamard, so the rank mod p
            # is the rank over Q
            assert math.prod(sum(v * v for v in row) for row in rows) < p * p
            assert det == det_fraction(rows) % p, (kind, rows)
            assert rank == rank_fraction(rows), (kind, rows)
            kinds[kind] = kinds.get(kind, 0) + 1
            full += rank == m
    assert full >= 25
    assert kinds["all zero"] == 7
    assert kinds["column swap after row swap"] == 18
    assert all(count >= 7 for count in kinds.values())


def _sieve(limit):
    """Primality of 0..limit as a bytearray, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return sieve


def _primes_just_below_2_31(count):
    """The primes among the `count` integers just below 2^31, descending, by
    a sieve segmented on the primes up to sqrt(2^31) < 10^5."""
    small = _sieve(10**5)
    lo, hi = 2**31 - count, 2**31
    segment = bytearray([1]) * (hi - lo)
    for q in range(2, math.isqrt(hi) + 1):
        if small[q]:
            start = max(q * q, -(-lo // q) * q)
            segment[start - lo :: q] = bytes(len(range(start, hi, q)))
    return [n for n in range(hi - 1, lo - 1, -1) if segment[n - lo]]


def test_is_probable_prime_matches_sieves():
    # the Miller-Rabin oracle of helpers, which the prime pool is checked by
    limit = 10**5
    sieve = _sieve(limit)
    assert [n for n in range(limit + 1) if helpers.is_probable_prime(n)] == [
        n for n in range(limit + 1) if sieve[n]
    ]
    lo = 2**31 - limit
    assert [n for n in range(2**31 - 1, lo - 1, -1) if helpers.is_probable_prime(n)] == (
        _primes_just_below_2_31(limit)
    )


def _fresh_prime_pool(monkeypatch):
    """An empty pool and per-modulus cache in place of the process's own."""
    pool = algebraic._PrimePool()
    monkeypatch.setattr(algebraic, "_PRIME_POOL", pool)
    monkeypatch.setattr(algebraic, "_CHAR_PRIMES", {})
    return pool


def test_prime_pool_matches_oracles(monkeypatch):
    pool = _fresh_prime_pool(monkeypatch)
    for m in range(1, 301):
        for count in (1, 3, 6):
            assert _character_primes(m, count) == helpers.character_primes_walk(m, count), (
                m,
                count,
            )
    # every prime of the pool's top segments, against an independent sieve
    want = _primes_just_below_2_31(10**5)
    _character_primes(1, len(want) + 1)
    got = np.concatenate(pool.segments).tolist()
    assert got[: len(want)] == want and got[len(want)] < 2**31 - 10**5


def test_prime_pool_refuses_below_its_floor(monkeypatch):
    pool = _fresh_prime_pool(monkeypatch)
    # one segment left above 2^30: the pool sieves it, then runs dry
    top = 2**30 + algebraic._SIEVE_SEGMENT
    pool.floor = top
    last = [n for n in range(top - 1, 2**30, -2) if helpers.is_probable_prime(n)]
    with pytest.raises(ResourceGuardError, match=f"only {len(last)} lie"):
        _character_primes(1, 10**6)
    assert pool.floor == 2**30 and [s.tolist() for s in pool.segments] == [last]
    assert _character_primes(1, 3) == last[:3]
    assert _character_primes(4, 2) == [p for p in last if p % 4 == 1][:2]


def test_torus_trace_budgets_sieve_two_segments(monkeypatch):
    # the bench torus_trace inputs: the rank-1 trace walks the companion
    # matrix and draws no prime, the rank-2 tori draw moduli 2..12, and the
    # split of every rank-1 modulus 1..104 draws from the first 2 x 2^15
    # numbers below 2^31 too
    pool = _fresh_prime_pool(monkeypatch)
    f = parse_laurent("3 - x - x^-1 + x^2 - x^-3", 1)
    quotients = [torus_quotient([n]) for n in range(1, 105)]
    entropy_trace(f, quotients)
    assert algebraic._CHAR_PRIMES == {} and pool.segments == []
    entropy_trace(
        parse_laurent("5 - x - x^-1 - y - y^-1", 2),
        [torus_quotient([n, n]) for n in range(2, 13)],
    )
    assert sorted(algebraic._CHAR_PRIMES) == list(range(2, 13))
    for q in quotients:
        helpers.split_count(f, q)
    assert sorted(algebraic._CHAR_PRIMES) == list(range(1, 105))
    assert len(pool.segments) <= 2


def test_det_singular_and_happy_big_entries():
    assert det_abs_exact([[1, 2], [2, 4]]) == 0
    big = 10**30
    assert det_abs_exact([[big, 0], [0, big]]) == big * big


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    # reduced by hand: gcd 2, |det| 8
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]


def test_snf_chain_product_and_nullity():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        factors = smith_normal_form(rows)
        assert len(factors) == n
        nonzero = [x for x in factors if x != 0]
        zeros = [x for x in factors if x == 0]
        assert factors == nonzero + zeros
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        det = abs(det_fraction(rows))
        if det != 0:
            assert not zeros
            assert math.prod(nonzero) == det
        else:
            assert len(zeros) == n - rank_fraction(rows)


# ---------------------------------------------------------------------------
# solution counting


def test_count_solutions_examples():
    assert count_solutions([[4, 0], [0, 4]]).value == 16
    infinite = count_solutions([[0, 0], [0, 0]])
    assert not infinite.is_finite
    assert infinite.nullity == 2
    circulant = [[-2, 0, 1], [1, -2, 0], [0, 1, -2]]
    sc = count_solutions(circulant)
    assert sc.value == 7
    assert count_torus_solutions_brute(circulant) == 7


def test_count_solutions_against_enumeration():
    rng = random.Random(31)
    verified = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        f = GroupRingElement(
            1, {e: rng.randint(-2, 2) for e in (-1, 0, 1)}
        )
        if f.is_zero:
            continue
        m = regular_rep_matrix(f, torus_quotient([n]))
        rows = m.tolist()
        sc = count_solutions(rows)
        det = abs(det_fraction(rows))
        if det == 0:
            assert not sc.is_finite
            assert sc.nullity == n - rank_fraction(rows)
            continue
        if det**n > 200_000:
            continue
        assert sc.value == count_torus_solutions_brute(rows)
        verified += 1
    assert verified >= 60


def test_fix_count_examples():
    assert fix_count(parse_laurent("2", 1), torus_quotient([5])).value == 32
    for n in range(1, 65):
        sc = fix_count(parse_laurent("x - 2", 1), torus_quotient([n]))
        assert sc.value == 2**n - 1
    sc = fix_count(parse_laurent("x - 1", 1), torus_quotient([6]))
    assert not sc.is_finite
    assert sc.nullity == 1


def test_fix_count_symmetries():
    rng = random.Random(37)
    cases = []
    for _ in range(25):
        rank = rng.choice([1, 2])
        if rank == 1:
            f = GroupRingElement(1, {e: rng.randint(-2, 2) for e in (-1, 0, 1)})
            shift = rng.randint(-2, 2)
            q = torus_quotient([rng.randint(1, 5)])
        else:
            f = GroupRingElement(
                2,
                {
                    (a, b): rng.randint(-2, 2)
                    for a in (-1, 0, 1)
                    for b in (-1, 0, 1)
                    if rng.random() < 0.5
                },
            )
            shift = (rng.randint(-1, 1), rng.randint(-1, 1))
            q = torus_quotient([rng.randint(1, 3), rng.randint(1, 3)])
        if f.is_zero:
            continue
        cases.append((f, shift, q))
    assert len(cases) >= 15
    for f, shift, q in cases:
        base = fix_count(f, q)
        star = fix_count(involution(f), q)
        shifted = fix_count(left_translate(f, shift), q)
        assert (base.value, base.nullity) == (star.value, star.nullity)
        assert (base.value, base.nullity) == (shifted.value, shifted.nullity)


# ---------------------------------------------------------------------------
# torus character products against the dense oracle


def _assert_matches_oracle(f, q):
    got = fix_count(f, q)
    want = count_solutions(regular_rep_matrix(f, q))
    assert (got.value, got.nullity) == (want.value, want.nullity), (f.render(), q.label)
    _assert_matches_every_character(f, q)
    return want


def _assert_matches_every_character(f, q):
    got, want = fix_count(f, q), every_character_count(f, q)
    assert (got.value, got.nullity) == (want.value, want.nullity), (f.render(), q.label)
    return got


def _random_torus_case(rng, rank, balanced):
    """A random non-symmetric f of the given rank and a small torus quotient."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exp = tuple(rng.randint(-4, 4) for _ in range(rank))
        terms[exp[0] if rank == 1 else exp] = rng.randint(-5, 5)
    if balanced:
        # coefficient sum 0: the trivial character is a zero
        key = next(iter(terms))
        terms[key] -= sum(terms.values())
    top = {1: 12, 2: 6, 3: 3}[rank]
    return GroupRingElement(rank, terms), torus_quotient(
        [rng.randint(1, top) for _ in range(rank)]
    )


def test_torus_fix_count_matches_dense_oracle():
    rng = random.Random(71)
    checked = {1: 0, 2: 0, 3: 0}
    singular = 0
    trivial_moduli = 0
    for i in range(240):
        rank = 1 + i % 3
        f, q = _random_torus_case(rng, rank, balanced=rng.random() < 0.25)
        if f.is_zero:
            continue
        want = _assert_matches_oracle(f, q)
        checked[rank] += 1
        singular += not want.is_finite
        trivial_moduli += 1 in q.moduli
    assert min(checked.values()) >= 60
    assert singular >= 40
    assert trivial_moduli >= 40


def test_torus_fix_count_singular_families():
    laplacian = parse_laurent("4 - x - x^-1 - y - y^-1", 2)
    for n in range(1, 8):
        want = _assert_matches_oracle(laplacian, torus_quotient([n, n]))
        assert want.nullity == 1
    for a, b in ((2, 3), (4, 6), (1, 5)):
        _assert_matches_oracle(laplacian, torus_quotient([a, b]))
    cubic = parse_laurent("1 + x + x^2", 1)
    for n in range(1, 31):
        want = _assert_matches_oracle(cubic, torus_quotient([n]))
        assert want.nullity == (2 if n % 3 == 0 else 0)
    # 1 + x + ... + x^(n-1) vanishes at the n - 1 nontrivial n-th roots of 1
    for n in (4, 9, 12):
        f = GroupRingElement(1, {e: 1 for e in range(n)})
        assert fix_count(f, torus_quotient([n])).nullity == n - 1
        assert _assert_matches_oracle(f, torus_quotient([2 * n])).nullity == n - 1
    rng = random.Random(73)
    for i in range(40):
        f, q = _random_torus_case(rng, 1 + i % 3, balanced=True)
        if f.is_zero:
            continue
        assert not _assert_matches_oracle(f, q).is_finite


def test_torus_fix_count_zero_candidates_that_do_not_vanish():
    # a multiple of the first character prime is 0 mod that prime at every
    # character, and a multiple of the product P of the first three is 0
    # mod each of them: every character is short of full rank there, and
    # only the norm budget, which grows with the coefficients, separates
    # the true zeros
    for n in (1, 5, 6, 12):
        primes = _character_primes(n, 3)
        for p in (primes[0], math.prod(primes)):
            sc = fix_count(GroupRingElement(1, {0: 2 * p, 1: -p}), torus_quotient([n]))
            assert sc.value == p**n * (2**n - 1)
            sc = fix_count(GroupRingElement(1, {0: p, 1: -p}), torus_quotient([n]))
            assert (sc.value, sc.nullity) == (None, 1)
    for p in (_character_primes(6, 1)[0], math.prod(_character_primes(6, 3))):
        f = GroupRingElement(2, {(0, 0): 4 * p, (1, 0): -p, (0, 1): -p, (-1, 0): -p, (0, -1): -p})
        assert _assert_matches_oracle(f, torus_quotient([2, 3])).nullity == 1
        f = GroupRingElement(2, {(0, 0): 5 * p, (1, 0): -p, (0, 1): -p, (-1, 0): -p, (0, -1): -p})
        assert _assert_matches_oracle(f, torus_quotient([2, 3])).is_finite


def test_torus_fix_count_folds_to_zero():
    sc = _assert_matches_oracle(parse_laurent("x - x^3", 1), torus_quotient([2]))
    assert sc.nullity == 2
    f = parse_laurent("x*y - x^3*y^-1", 2)
    assert _assert_matches_oracle(f, torus_quotient([2, 2])).nullity == 4
    assert _assert_matches_oracle(f, torus_quotient([1, 2])).nullity == 2
    assert not _assert_matches_oracle(f, torus_quotient([2, 3])).is_finite


def test_torus_fix_count_huge_coefficients():
    top = 2**63 - 1
    cases = [
        (GroupRingElement(1, {0: top, 1: -(top - 1)}), [[n] for n in (1, 2, 5, 9)]),
        (GroupRingElement(1, {0: top, 1: -top}), [[n] for n in (1, 3)]),
        (GroupRingElement(1, {0: top, 2: top, -1: -top}), [[n] for n in (2, 4, 7)]),
        (
            GroupRingElement(2, {(0, 0): top, (1, 0): -(top - 2), (0, -1): 1}),
            [[2, 2], [3, 2], [1, 4]],
        ),
    ]
    for f, moduli in cases:
        for mods in moduli:
            _assert_matches_oracle(f, torus_quotient(mods))
    got = fix_count(GroupRingElement(1, {0: top, 1: -(top - 1)}), torus_quotient([5]))
    assert got.value == top**5 - (top - 1) ** 5


def test_torus_fix_count_rank_mismatch_and_guard(monkeypatch):
    with pytest.raises(ValueError, match="mismatch"):
        fix_count(parse_laurent("5 - x - y", 2), torus_quotient([4]))
    with pytest.raises(ValueError, match="mismatch"):
        fix_count(parse_laurent("3 - x", 1), torus_quotient([2, 2]))
    # the split of x - 2 at Z/2000: 78 primes for the bound 5^2000, each
    # 2000 characters at 1 + 2 + 16 units, 20,000 for the plan, and a pool
    # of 64 x 78 x phi(2000) = 3,993,600
    f, q = parse_laurent("x - 2", 1), torus_quotient([2000])
    assert algebraic._crt_prime_count(5**2000) == 78
    monkeypatch.setattr(algebraic, "COST_CAP", 78 * 2000 * 19 + 20000 - 1)
    with pytest.raises(ResourceGuardError, match="work 2984000 so far, prime supply 3993600$"):
        helpers.split_count(f, q)
    monkeypatch.setattr(algebraic, "COST_CAP", 3993600 - 1)
    with pytest.raises(ResourceGuardError, match="Z/2000 exceeds the cap 3993599"):
        helpers.split_count(f, q)
    monkeypatch.setattr(algebraic, "COST_CAP", 3993600)
    assert helpers.split_count(f, q).value == 2**2000 - 1
    # fix_count prices the companion walk too, and is refused only past both
    walk = math.ceil(companion.Companion(helpers.ascending(f)).cost(2000, 2000))
    assert walk < 78 * 2000 * 19
    monkeypatch.setattr(algebraic, "COST_CAP", walk - 1)
    with pytest.raises(ResourceGuardError, match=(
        f"Z/2000 exceeds the cap {walk - 1}: companion work {walk} at Z/2000, "
        "split work 2984000 and prime supply 3993600 at Z/2000$"
    )):
        fix_count(f, q)
    monkeypatch.setattr(algebraic, "COST_CAP", walk)
    assert fix_count(f, q).value == 2**2000 - 1


def test_estimate_prime_count_matches_the_exact_power():
    # _crt_prime_count(s ** d) without the power, on bases that are powers of
    # two, bases next to them (whose powers can fall next to a power of two,
    # where the bounds' precision doubles) and bit lengths of 4 s^d next to a
    # multiple of 60 either way
    bases = [0, 1, 2, 3, 4, 5, 7, 11, 16, 29, 31, 32, 33, 1000, 2**20, 2**20 + 1,
             2**31 - 1, 2**64 - 1, 2**64 + 1, 2**70 - 1, 3**40]
    degrees = list(range(1, 130)) + [255, 256, 1000, 4096, 10**4 + 1, 65537]
    edges = set()
    for s in bases:
        for d in degrees:
            if s.bit_length() * d > 2 * 10**6:
                continue
            exact = algebraic._crt_prime_count(s**d)
            assert algebraic._power_prime_count(s, d) == exact, (s, d)
            edges.add((4 * s**d).bit_length() % 60)
    assert {59, 0, 1} <= edges
    # and through the priced plan, whose count is that of the Hadamard bound
    rng = random.Random(229)
    for i in range(40):
        f, q = _random_torus_case(rng, 1 + i % 3, balanced=i % 2 == 0)
        if f.is_zero:
            continue
        squares = sum(c * c for c in q.split_plan(f).coeffs)
        assert algebraic._Split(q.split_plan(f)).det_need == algebraic._crt_prime_count(squares**q.size)


def test_cost_guard_refuses_before_any_prime(monkeypatch):
    def refuse(*args):
        raise AssertionError("a prime was drawn or a segment sieved")

    monkeypatch.setattr(algebraic._PrimePool, "grow", refuse)
    monkeypatch.setattr(algebraic, "_character_primes", refuse)
    laplacian = parse_laurent("5 - x - x^-1 - y - y^-1", 2)
    with pytest.raises(ResourceGuardError, match="at Z/1000xZ/1000 exceeds"):
        fix_count(laplacian, torus_quotient([1000, 1000]))
    f = parse_laurent("3 - x - x^-1", 1)
    # the split of Z/50021: 2,885 primes for the bound 11^50021, each 50021
    # characters at 20 units
    with pytest.raises(ResourceGuardError, match="work 2886231700 so far"):
        helpers.split_count(f, torus_quotient([50021]))
    # Z/20011: work 1,154 x 20011 x 20 is within the cap, but serving 1,154
    # primes = 1 (mod 20011) needs a pool of about 1,154 x 20010 primes
    with pytest.raises(ResourceGuardError, match="work 461873880 so far, prime supply 1477858560"):
        helpers.split_count(f, torus_quotient([20011]))
    # the companion walk counts both, with no prime: |Res(x^n - 1, p)| is
    # the Lucas number L_2n - 2 for p = -1 + 3x - x^2
    lucas = helpers.lucas_numbers(2 * 50021)
    for n in (20011, 50021):
        assert fix_count(f, torus_quotient([n])).value == lucas[2 * n] - 2
    # 3 - x^5 - x^-5 at Z/200000 passes the cap on both routes, refused
    # before any step, square or resultant of the walk
    monkeypatch.setattr(companion.Companion, "counts", refuse)
    monkeypatch.setattr(companion.Companion, "_mul", refuse)
    monkeypatch.setattr(companion, "_resultant", refuse)
    with pytest.raises(ResourceGuardError, match=(
        r"at Z/200000 exceeds the cap 1000000000: companion work \d+ at Z/200000, "
        r"split work 46128020000 and prime supply 59043840000 at Z/200000$"
    )):
        fix_count(parse_laurent("3 - x^5 - x^-5", 1), torus_quotient([200000]))


def test_split_refusal_names_the_work_and_the_prime_supply(monkeypatch):
    # a split-only count is refused by _counts from its _Split's numbers: on
    # (Z/12)^2 at its work, and on Z/1 x Z/211, whose 13 primes = 1 (mod
    # 211) need a pool of 64 x 13 x 210 primes, at its prime supply alone
    f = parse_laurent("5 - x - x^-1 - y - y^-1", 2)
    for moduli, over in (([12, 12], "work"), ([1, 211], "supply")):
        q = torus_quotient(moduli)
        split = algebraic._Split(q.split_plan(f))
        work, supply = split.work, split.supply
        assert (supply > work) == (over == "supply")
        cap = max(work, supply) - 1
        monkeypatch.setattr(algebraic, "COST_CAP", cap)
        with pytest.raises(ResourceGuardError) as info:
            fix_count(f, q)
        assert str(info.value) == (f"estimated cost at {q.label} exceeds the cap {cap}: "
                                   f"work {work} so far, prime supply {supply}")


def test_tori_past_the_old_matrix_guard_count_by_default():
    # d = 1024 and 4096, with d^2 above 10^6: |Fix| is the product of the
    # character values 5 - 2 cos(2 pi j / n) - 2 cos(2 pi k / n)
    laplacian = parse_laurent("5 - x - x^-1 - y - y^-1", 2)
    for n in (32, 64):
        sc = fix_count(laplacian, torus_quotient([n, n]))
        angles = 2 * np.pi * np.arange(n) / n
        values = 5 - 2 * np.cos(angles)[:, None] - 2 * np.cos(angles)[None, :]
        assert log_big_int(sc.value) == pytest.approx(np.log(values).sum(), rel=1e-12)


def test_trace_stops_at_the_quotient_that_passes_the_cap(monkeypatch):
    # on rank 2, which only the split counts
    f = parse_laurent("5 - x - x^-1 - y - y^-1", 2)
    quotients = [torus_quotient([n, n]) for n in (2, 3, 5, 8, 12)]
    works = [algebraic._Split(q.split_plan(f)).work for q in quotients]
    drawn = []
    primes = algebraic._character_primes
    monkeypatch.setattr(
        algebraic, "_character_primes", lambda *a: drawn.append(a) or primes(*a)
    )
    # a cap of exactly the first three quotients' work admits them only, and
    # the whole trace is refused before its first prime
    monkeypatch.setattr(algebraic, "COST_CAP", sum(works[:3]))
    total = sum(works[:4])
    with pytest.raises(ResourceGuardError, match=f"at Z/8xZ/8 exceeds .*work {total} so far"):
        entropy_trace(f, quotients)
    assert drawn == []
    monkeypatch.setattr(algebraic, "COST_CAP", sum(works))
    assert len(entropy_trace(f, quotients).records) == 5
    assert drawn


def test_cost_estimate_bounds_the_primes_drawn(monkeypatch):
    # the estimate's prime count (the one passed to the split) is the count
    # drawn for a nonsingular f and at least it for a singular one, on the
    # torus, split and singular batteries
    drawn = _drawn_primes(monkeypatch)
    estimates = []
    split = algebraic._split_det
    monkeypatch.setattr(
        algebraic,
        "_split_det",
        lambda splits: estimates.extend(s.det_need for s in splits) or split(splits),
    )
    rng = random.Random(191)
    cases = [_random_torus_case(rng, 1 + i % 3, balanced=i % 4 == 0) for i in range(60)]
    for q, gens in _explicit_quotients(rng):
        cases += [(_random_word_element(rng, gens, balanced=i == 0), q) for i in range(3)]
    cases += [(f, q) for _, f, q, _ in _singular_explicit_cases(rng)]
    finite = singular = 0
    for f, q in cases:
        if f.is_zero:
            continue
        drawn.clear()
        estimates.clear()
        sc = helpers.split_count(f, q)
        assert len(estimates) == 1, (f.render(), q.label)
        if sc.is_finite:
            assert len(drawn) == estimates[0], (f.render(), q.label)
            finite += 1
        else:
            assert len(drawn) <= estimates[0], (f.render(), q.label)
            singular += 1
    assert finite >= 50 and singular >= 50


def _drawn_primes(monkeypatch):
    """A list that records every prime the split draws, via _root_powers,
    which takes each round's primes with their roots' orders."""
    drawn = []
    real = algebraic._root_powers

    def spy(orders, primes):
        drawn.extend(primes)
        return real(orders, primes)

    monkeypatch.setattr(algebraic, "_root_powers", spy)
    return drawn


def _count_drawn(drawn, f, q):
    drawn.clear()
    sc = helpers.split_count(f, q)
    return sc, len(drawn)


def test_split_prime_counts(monkeypatch):
    # the split called directly (`_count_drawn`), as fix_count walks the
    # companion matrix on most rank-1 tori
    drawn = _drawn_primes(monkeypatch)
    # a nonsingular quotient draws exactly the determinant's budget
    rng = random.Random(163)
    nonsingular = 0
    for i in range(90):
        f, q = _random_torus_case(rng, 1 + i % 3, balanced=False)
        if f.is_zero:
            continue
        sc, count = _count_drawn(drawn, f, q)
        if sc.is_finite:
            squares = sum(c * c for c in q.split_plan(f).coeffs)
            assert count == algebraic._crt_prime_count(squares**q.size), (f.render(), q.label)
            nonsingular += 1
    assert nonsingular >= 50
    # a singular one draws only its short blocks' norm budget: 8 for the
    # Laplacian's trivial character, 3^2 for the order-3 characters of 1 + x + x^2
    laplacian = parse_laurent("4 - x - x^-1 - y - y^-1", 2)
    for n in range(2, 13):
        sc, count = _count_drawn(drawn, laplacian, torus_quotient([n, n]))
        assert (sc.nullity, count) == (1, 1), n
    cubic = parse_laurent("1 + x + x^2", 1)
    for j in range(1, 35):
        sc, count = _count_drawn(drawn, cubic, torus_quotient([3 * j]))
        assert (sc.nullity, count) == (2, 1), j
    # SL(2,7), d = 336 in 14 blocks of 24: the singular Laplacian's short
    # block is trivial, with budget 8^24 < 2^90, three primes; its
    # determinant would need 25.  lambda = 5 is symmetric, so it lifts the
    # square root H of det M, |H| <= 29^84, in 14 primes where det M would
    # need 28; a non-symmetric f with sum c^2 = 31 draws its 28
    table, a, b = sl2_table(7)
    q = ExplicitQuotient(table, {"a": a, "b": b}, "SL(2,7)")
    for lam, want in ((4, 3), (5, 14)):
        f = GroupRingElement(
            0, {parse_word(w): -1 for w in ("a", "a^-1", "b", "b^-1")} | {(): lam}
        )
        sc, count = _count_drawn(drawn, f, q)
        assert count == want
        assert count <= algebraic._crt_prime_count((lam * lam + 4) ** 336)
        assert sc.is_finite == (lam == 5)
    sc, count = _count_drawn(drawn, _asymmetric(), q)
    assert sc.is_finite and count == algebraic._crt_prime_count(31**336) == 28


# ---------------------------------------------------------------------------
# rank-1 tori: the companion walk against the split


def _poly_mul(a, b):
    """The product of two ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# the cyclotomic polynomials Phi_o, o <= 12 but 11, ascending
_PHI = {
    1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 5: [1, 1, 1, 1, 1],
    6: [1, -1, 1], 7: [1] * 7, 8: [1, 0, 0, 0, 1], 9: [1, 0, 0, 1, 0, 0, 1],
    10: [1, -1, 1, -1, 1], 12: [1, 0, -1, 0, 1],
}


def _laurent(coeffs, lo):
    """x^lo times the ascending coefficients, as a rank-1 element."""
    return GroupRingElement(1, {lo + k: c for k, c in enumerate(coeffs) if c})


def _rank1_battery(rng):
    """(kind, f) pairs: non-monic p with either sign of lc, negative
    exponents only, monomials, singular f with several cyclotomic factors,
    and linear p."""
    cases = []
    for i in range(12):
        lc = rng.choice((-5, -3, -2, 2, 3, 4))
        coeffs = [rng.choice((-3, -1, 1, 2))]
        coeffs += [rng.randint(-4, 4) for _ in range(rng.randint(0, 4))]
        cases.append(("non-monic", _laurent(coeffs + [lc], rng.randint(-6, 2))))
    for i in range(8):
        coeffs = [rng.choice((-2, 1, 3))] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
        coeffs.append(rng.choice((-1, 1, -2)))
        cases.append(("negative exponents", _laurent(coeffs, -len(coeffs) - rng.randint(0, 3))))
    for c in (1, -1, 2, -3, 7):
        cases.append(("monomial", _laurent([c], rng.randint(-5, 5))))
    for i in range(10):
        p = [rng.choice((-2, -1, 1, 3))] + [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
        for o in rng.sample(sorted(_PHI), rng.randint(2, 3)):
            p = _poly_mul(p, _PHI[o])
        if not p[-1]:
            p[-1] = 1
        cases.append(("cyclotomic", _laurent(p, rng.randint(-3, 1))))
    for lc in (-3, -1, 2):
        cases.append(("linear", _laurent([rng.choice((-2, 1, 3)), lc], rng.randint(-3, 1))))
    return cases


def _check_rank1(f, sizes, got):
    """The number of singular counts among got, the walk's (|det M_n|, rank
    M_n) at the sizes n, each checked against the split and the matrix form,
    whose nullities come from exact rational elimination."""
    singular = 0
    for n, (det, rank) in zip(sizes, got):
        want = helpers.split_count(f, torus_quotient([n]))
        assert helpers.companion_count(f, n) == want, (f.render(), n)
        assert (det or None, n - rank) == (want.value, want.nullity), (f.render(), n)
        singular += want.value is None
    return singular


def test_companion_walk_matches_the_split_on_rank1_batteries(monkeypatch):
    # every value and nullity over Z/1..60, walked step by step, against the
    # matrix form and the split, with no prime drawn on the walk; fix_count
    # takes the walk on most of them
    drawn = _drawn_primes(monkeypatch)
    walks = _spy_calls(monkeypatch, companion.Companion, "counts")
    sizes = list(range(1, 61))
    kinds = {}
    singular = 0
    for kind, f in _rank1_battery(random.Random(241)):
        drawn.clear()
        got = companion.Companion(helpers.ascending(f)).counts(sizes)
        assert drawn == [], (kind, f.render())
        singular += _check_rank1(f, sizes, got)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {"non-monic": 12, "negative exponents": 8, "monomial": 5, "cyclotomic": 10,
                     "linear": 3}
    assert singular >= 100
    walks.clear()
    quotients = [torus_quotient([n]) for n in sizes]
    for kind, f in _rank1_battery(random.Random(241)):
        algebraic._counts(f, quotients)
    assert len(walks) >= 30


def test_companion_nullity_with_repeated_roots_on_the_circle():
    # a root of unity of multiplicity k drops the rank of M_n by one, not k:
    # the last remainder's degree is that of the squarefree gcd, against the
    # matrix form and the split over Z/1..60
    sizes = list(range(1, 61))
    cubed = _poly_mul(_PHI[1], _poly_mul(_PHI[1], _PHI[1]))
    cases = {
        "Phi_3^2": _poly_mul(_PHI[3], _PHI[3]),
        "(1 + x)^2": _poly_mul(_PHI[2], _PHI[2]),
        "Phi_3^2 Phi_4": _poly_mul(_poly_mul(_PHI[3], _PHI[3]), _PHI[4]),
        "Phi_1^3 (2 - x)": _poly_mul(cubed, [2, -1]),
        "Phi_12^2 Phi_2": _poly_mul(_poly_mul(_PHI[12], _PHI[12]), _PHI[2]),
    }
    singular = 0
    for lo, (name, p) in enumerate(cases.items()):
        f = _laurent(p, -lo)
        singular += _check_rank1(f, sizes, companion.Companion(helpers.ascending(f)).counts(sizes))
    # singular where 3 | n, 2 | n, 3 | n or 4 | n, always, and 2 | n
    assert singular == 20 + 30 + 30 + 60 + 30


def test_companion_resultant_against_the_sylvester_determinant():
    # the signed resultant and the gcd degree of random pairs, both degrees
    # odd among them (where the sign flips), with common factors and either
    # sign of either leading coefficient, against the Sylvester matrix's
    # determinant and nullity by exact rational elimination
    rng = random.Random(263)
    seen = set()
    def cofactor(degree, leads):
        return [rng.randint(-3, 3) for _ in range(degree)] + [rng.choice(leads)]

    for _ in range(300):
        common = cofactor(rng.randint(0, 2), (-2, 1, 3))
        da = rng.randint(len(common), 7)
        db = rng.randint(len(common) - 1, da - 1)
        a = _poly_mul(common, cofactor(da - len(common) + 1, (-3, -1, 2)))
        b = _poly_mul(common, cofactor(db - len(common) + 1, (-2, 1, 3)))
        rows = helpers.sylvester(a, b)
        want = (det_fraction(rows), len(rows) - rank_fraction(rows))
        assert companion._resultant(a, b) == want, (a, b)
        seen.add((len(a) % 2 == len(b) % 2 == 0, want[0] == 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_companion_nullity_finds_orders_past_the_degree():
    # the nullity is the number of n-th roots of unity among the roots of p:
    # 1 + x + x^2 = Phi_3 at Z/6, and Phi_12 Phi_7 (D = 10, order 12 past D)
    [(det, rank)] = companion.Companion([1, 1, 1]).counts([6])
    assert (det, 6 - rank) == (0, 2)
    walk = companion.Companion(_poly_mul(_PHI[12], _PHI[7]))
    sizes = [5, 7, 12, 84]
    assert [n - rank for n, (det, rank) in zip(sizes, walk.counts(sizes))] == [0, 6, 4, 10]


def test_companion_trace_with_gaps_squares_them(monkeypatch):
    # a trace over sizes with gaps and repeats raises the long gaps by
    # squaring; the counts match the matrix form and the split, the reports
    # those of the split
    squared = _spy_calls(monkeypatch, companion.Companion, "_power")
    rng = random.Random(251)
    sizes = [3, 7, 7, 40, 300, 301, 1000]
    for kind, f in _rank1_battery(rng)[::3]:
        squared.clear()
        walk = companion.Companion(helpers.ascending(f))
        _check_rank1(f, sizes, walk.counts(sizes))
        # the gap 301 -> 1000 is squared, unless f is a monomial
        assert ((699,) in squared) == (walk.degree > 0), f.render()
    from sofic.cli import main

    argv = ["algebraic", "--poly", "5 + 2*x - 3*x^2 + 4*x^-1", "--format", "json",
            *[arg for n in sizes for arg in ("--moduli", str(n))]]
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    f = parse_laurent("5 + 2*x - 3*x^2 + 4*x^-1", 1)
    records = json.loads(out.getvalue())["records"]
    assert [r["d"] for r in records] == sizes
    for r in records:
        want = log_big_int(helpers.split_count(f, torus_quotient([r["d"]])).value)
        assert r["log_fix_count"] == want, r


def test_companion_counts_one_large_torus_by_squaring(monkeypatch):
    squared = _spy_calls(monkeypatch, companion.Companion, "_power")
    drawn = _drawn_primes(monkeypatch)
    f, q = parse_laurent("5 + 2*x - 3*x^2 + 4*x^-1", 1), torus_quotient([2999])
    got = fix_count(f, q)
    assert squared == [(2999,)] and drawn == []
    assert got == helpers.split_count(f, q) == helpers.companion_count(f, 2999)


@pytest.mark.parametrize("lc", [1, -1, 5, -(2**63 - 1)])
def test_companion_counts_of_a_monomial_keep_one_running_power(lc):
    # D = 0: |lc|^n carried across gapped sizes with repeats, times |lc|^gap
    sizes = [1, 1, 2, 5, 5, 6, 13, 40, 40, 41, 100]
    walk = companion.Companion([lc])
    assert walk.degree == 0
    assert walk.counts(sizes) == [(abs(lc) ** n, n) for n in sizes]


def test_small_degree_rank1_trace_draws_no_prime(monkeypatch):
    calls = _spy_calls(monkeypatch, algebraic, "_character_primes")
    # nor prices the split it drops: the walk's total stays within the
    # split's floor of _SPLIT_PLAN a quotient, so no plan is built
    plans = _spy_calls(monkeypatch, TorusQuotient, "split_plan")
    bounds = _spy_calls(monkeypatch, algebraic, "_power_prime_count")
    for text in ("3 - x - x^-1 + x^2 - x^-3", "1 + x + x^2", "x - 2"):
        trace = entropy_trace(parse_laurent(text, 1), [torus_quotient([n]) for n in range(1, 105)])
        assert len(trace.records) + len(trace.skipped) == 104
    trace = entropy_trace(parse_laurent("3 - x - x^-1", 1), [torus_quotient([n]) for n in range(1, 1001)])
    assert len(trace.records) == 1000
    assert calls == [] and plans == [] and bounds == []


def _rank1_route_battery():
    """(f, sizes) pairs whose rank-1 traces take the walk, take the split,
    or are refused with either route out first: sparse p of rising degree,
    seeded dense p, a constant, x - 1 and a non-monic p, each over short
    and long ranges."""
    texts = [f"3 - x^{k} - x^-{k}" for k in (1, 8, 16, 32)]
    fs = [parse_laurent(text, 1) for text in texts + ["3 - x - x^33", "3 - x - x^70"]]
    rng = random.Random(2701)
    for degree in (10, 20, 40):
        p = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(degree - 1)]
        fs.append(_laurent(p + [rng.choice((-7, -3, 2, 5))], -(degree // 2)))
    fs += [parse_laurent(text, 1) for text in ("5", "x - 1", "5 + 2*x - 3*x^2 + 4*x^-1")]
    ranges = [range(1, 4), range(1, 105), range(5, 61), range(1, 2001), range(1, 14001)]
    return [(f, sizes) for f in fs for sizes in ranges]


def test_rank1_route_matches_the_eager_pricing(monkeypatch):
    # the split is priced only where its total decides the route, yet every
    # trace takes the route, the prime counts and the refusal of the form
    # that priced both routes at every quotient (helpers.rank1_route)
    walks, walk = [], companion.Companion.counts
    # a long walk is not run: its sizes are checked, and its counts, like
    # every walk's, are held against both oracles by the rank-1 batteries
    monkeypatch.setattr(companion.Companion, "counts", lambda self, sizes: walks.append(sizes) or (
        walk(self, sizes) if len(sizes) <= 104 else [None] * len(sizes)))
    splits = _spy_calls(monkeypatch, algebraic, "_split_det")
    refusal = re.compile(r"estimated cost at (Z/\d+) .*: companion work \d+ at (Z/\d+), "
                         r"split work \d+ and prime supply \d+ at (Z/\d+)")
    seen, refused = set(), set()
    for f, sizes in _rank1_route_battery():
        if (f.render(), sizes.start) in refused:
            # a longer range from the same start draws the same quotients up
            # to the same refusal
            continue
        route = helpers.rank1_route(f, sizes)
        del walks[:], splits[:]
        try:
            # drawn lazily, so that a refused trace builds no quotient past
            # the refused one
            kept, counts = algebraic._counts(f, (torus_quotient([n]) for n in sizes))
        except ResourceGuardError as error:
            assert str(error) == route, (f.render(), sizes)
            assert walks == [] and splits == []
            refused.add((f.render(), sizes.start))
            at, walk_out, split_out = refusal.fullmatch(route).groups()
            seen.add("walk out first" if walk_out != at else "split out first")
            continue
        assert route == ("walk" if walks else "split") and len(walks) + len(splits) == 1, (
            f.render(), sizes)
        seen.add(route)
        quotients = [torus_quotient([n]) for n in sizes]
        assert kept == quotients
        if walks:
            assert walks == [list(sizes)]
            if len(sizes) <= 104:
                assert counts == walk(companion.Companion(helpers.ascending(f)), sizes)
        else:
            # the plans and prime counts of each quotient's own priced plan
            priced = [algebraic._Split(q.split_plan(f)) for q in quotients]
            assert [s.det_need for s in splits[0][0]] == [s.det_need for s in priced]
            assert counts == algebraic._split_det(priced)
    assert seen == {"walk", "split", "walk out first", "split out first"}


def test_sparse_high_degree_rank1_trace_takes_the_split(monkeypatch):
    # D = 64 costs the resultant's 63 stages per quotient on the walk,
    # against 3 terms a character on the split
    walks = _spy_calls(monkeypatch, companion.Companion, "counts")
    splits = _spy_calls(monkeypatch, algebraic, "_split_det")
    f = parse_laurent("3 - x^32 - x^-32", 1)
    trace = entropy_trace(f, [torus_quotient([n]) for n in range(1, 105)])
    assert walks == [] and len(splits) == 1
    assert len(trace.records) == 104
    # and so does D = 70 over Z/1..3, whose Jensen reference is refused
    entropy_trace(parse_laurent("3 - x - x^70", 1), [torus_quotient([n]) for n in (1, 2, 3)])
    assert walks == [] and len(splits) == 2
    # a degree whose resultant alone would pass the cap is not priced for
    # the walk at all, so its p of 10^12 + 1 coefficients is never written
    # out
    made = _spy_calls(monkeypatch, companion.Companion, "__init__")
    # (on Z/6, x^(10^12) = x^4, and 3 - w^4 over w^6 = 1 is 3 - z over the
    # cube roots z of unity, twice)
    f = parse_laurent("3 - x^1000000000000", 1)
    assert fix_count(f, torus_quotient([6])).value == (3**3 - 1) ** 2
    assert made == [] and len(splits) == 3


def test_dense_high_degree_rank1_trace_takes_the_split(monkeypatch):
    # a dense p of degree 50 with coefficients up to 9: the resultant's
    # remainders grow by a minor order a stage, so the walk is priced far
    # over the split's 51 terms a character, and the counts are the split's
    walks = _spy_calls(monkeypatch, companion.Companion, "counts")
    splits = _spy_calls(monkeypatch, algebraic, "_split_det")
    rng = random.Random(271)
    p = [rng.choice((-9, -5, 4, 7))] + [rng.randint(-9, 9) for _ in range(49)] + [5]
    f = _laurent(p, -25)
    quotients = [torus_quotient([n]) for n in range(1, 101)]
    trace = entropy_trace(f, quotients)
    assert walks == [] and len(splits) == 1
    assert len(trace.records) + len(trace.skipped) == 100
    # by a wide margin: the walk is priced over 100 times the split
    spent = 0
    for q in quotients:
        spent += algebraic._Split(q.split_plan(f)).work
    walk = companion.Companion(helpers.ascending(f))
    assert sum(walk.cost(1, n) for n in range(1, 101)) > 100 * spent


def _spy_calls(monkeypatch, owner, name):
    """A list of the argument tuples of every call of owner.name, without a
    bound instance."""
    calls = []
    real = getattr(owner, name)
    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, lambda self, *a: calls.append(a) or real(self, *a))
    else:
        monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or real(*a))
    return calls


# ---------------------------------------------------------------------------
# the batched split: every plan of a trace counted in one _split_det


def _dihedral(n):
    """D_n as the maps x -> (-1)^e x + i of Z/n, numbered 2 i + e, with r the
    rotation x + 1 and s the reflection -x.  A = <r>, so its blocks are 2 x 2."""
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for e in range(2):
            for j in range(n):
                for g in range(2):
                    # (i, e) after (j, g): x -> (-1)^(e+g) x + (-1)^e j + i
                    table[2 * i + e][2 * j + g] = 2 * ((i + (-1) ** e * j) % n) + (e + g) % 2
    return ExplicitQuotient(table, {"r": 2 % (2 * n), "s": 1}, f"D{n}")


def _alternating4(central=False):
    """A4, or Z/2 x A4 with ``central``, on the even permutations of 0..3.
    A is a self-normalising <(0 1 2)>, or <(0 1 2)> x Z/2, so its blocks are
    4 x 4 and every orbit of characters is a single one."""
    perms = sorted(p for p in itertools.permutations(range(4)) if _even(p))
    n = len(perms)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[k] for k in r)] for r in perms] for p in perms]
    images = {"a": index[(1, 2, 0, 3)], "b": index[(1, 0, 3, 2)]}
    if central:
        table = [
            [(z ^ w) * n + table[i][j] for w in (0, 1) for j in range(n)]
            for z in (0, 1)
            for i in range(n)
        ]
        images["c"] = n + index[(0, 1, 2, 3)]
    return ExplicitQuotient(table, images, "Z/2 x A4" if central else "A4")


def _even(perm):
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :]) % 2 == 0


def _split_spies(monkeypatch):
    """A log of the split's groups, each as (plan, primes) pairs, and of every
    prime it draws (`_drawn_primes`)."""
    log = {"groups": [], "primes": _drawn_primes(monkeypatch)}
    split_round = algebraic._split_round

    def spy(group):
        log["groups"].append([(s.plan, count) for s, count in group])
        split_round(group)

    monkeypatch.setattr(algebraic, "_split_round", spy)
    return log


def _assert_batch_matches_lone_counts(log, pairs):
    """One _split_det over every (f, q) gives each pair the count, nullity
    and drawn primes of a lone fix_count."""
    lone = []
    for f, q in pairs:
        log["groups"].clear()
        log["primes"].clear()
        sc = helpers.split_count(f, q)
        assert all(len(group) == 1 for group in log["groups"])
        lone.append((sc, sorted(log["primes"]), sum(c for g in log["groups"] for _, c in g)))
    splits = [algebraic._Split(q.split_plan(f)) for f, q in pairs]
    plans = [s.plan for s in splits]
    log["groups"].clear()
    log["primes"].clear()
    results = algebraic._split_det(splits)
    drawn = [0] * len(plans)
    where = {id(plan): i for i, plan in enumerate(plans)}
    for group in log["groups"]:
        for plan, count in group:
            drawn[where[id(plan)]] += count
    for (f, q), split, (sc, _, count), got in zip(pairs, results, lone, drawn):
        batched = algebraic._solution(q, *split)
        assert (batched.value, batched.nullity) == (sc.value, sc.nullity), (f.render(), q.label)
        assert got == count, (f.render(), q.label)
    assert sorted(log["primes"]) == sorted(p for _, primes, _ in lone for p in primes)
    return log["groups"]


def _mixed_split_battery(rng):
    """(f, q) pairs of tori of rank 1-3, abelian tables and explicit quotients
    of block sizes 1 to 4, in an order that interleaves them."""
    laplacian = parse_laurent("4 - x - x^-1 - y - y^-1", 2)
    cubic = parse_laurent("1 + x + x^2", 1)
    pairs = []
    for n in (1, 2, 3, 5, 6, 9, 12):
        pairs.append((parse_laurent("3 - x - x^-1 + x^2", 1), torus_quotient([n])))
        pairs.append((cubic, torus_quotient([n])))
    for n in (2, 3, 4, 5):
        pairs.append((laplacian, torus_quotient([n, n])))
        pairs.append((parse_laurent("5 - x - y^-1 + x*y", 2), torus_quotient([n, n + 1])))
    pairs.append((parse_laurent("7 - x - y - z", 3), torus_quotient([2, 2, 2])))
    laplacian3 = parse_laurent("6 - x - x^-1 - y - y^-1 - z - z^-1", 3)
    pairs.append((laplacian3, torus_quotient([2, 3, 2])))
    pairs.append((parse_laurent("2 - x*y*z", 3), torus_quotient([3, 3, 3])))
    for i in range(6):
        pairs.append(_random_torus_case(rng, 1 + i % 3, balanced=i % 2 == 0))
    for moduli in ([6], [2, 4]):
        _, eq = _abelian_pair(moduli, rng)
        gens = "xy"[: len(moduli)]
        pairs += [(_random_word_element(rng, gens, balanced=i == 0), eq) for i in range(2)]
    table, perms = s3_table()
    s3 = ExplicitQuotient(table, {"s": perms.index((1, 0, 2)), "r": perms.index((1, 2, 0))}, "S3")
    table, a, b = sl2_table(3)
    sl23 = ExplicitQuotient(table, {"a": a, "b": b}, "SL(2,3)")
    table, x, y = heisenberg_table(3)
    h3 = ExplicitQuotient(table, {"x": x, "y": y}, "H3(3)")
    explicit = [_dihedral(4), _dihedral(5), s3, _dihedral(6), sl23, h3, _dihedral(7)]
    for q in explicit:
        gens = sorted(q.generator_images)
        for i in range(2):
            pairs.append((_random_word_element(rng, gens, balanced=i == 1), q))
        pairs.append((GroupRingElement(0, {(): 5, ((gens[0], 1),): -1, ((gens[1], -1),): -2}), q))
    # interleave, so groups form of both consecutive equal and unequal block sizes
    rng.shuffle(pairs)
    return [(f, q) for f, q in pairs if not f.is_zero]


def test_batched_split_matches_lone_counts(monkeypatch):
    log = _split_spies(monkeypatch)
    rng = random.Random(211)
    pairs = _mixed_split_battery(rng)
    sizes = {q.split_plan(f).cols.shape[1] for f, q in pairs}
    assert sizes >= {1, 2, 3}
    groups = _assert_batch_matches_lone_counts(log, pairs)
    assert any(len(g) > 1 and g[0][0].cols.shape[1] > 1 for g in groups)
    assert any(len(g) > 1 and g[0][0].cols.shape[1] == 1 for g in groups)
    nullities = [fix_count(f, q).nullity for f, q in pairs]
    assert sum(n > 0 for n in nullities) >= 10


def test_batched_split_with_every_plan_alone(monkeypatch):
    # a budget of one residue leaves every plan its own group, a prime a round
    log = _split_spies(monkeypatch)
    monkeypatch.setattr(algebraic, "_CHAR_BLOCK", 1)
    pairs = _mixed_split_battery(random.Random(223))[:30]
    groups = _assert_batch_matches_lone_counts(log, pairs)
    assert all(len(group) == 1 for group in groups)
    assert all(count == 1 for group in groups for _, count in group)


def test_long_torus_trace_counts_in_one_split(monkeypatch):
    # every plan of a long torus trace goes to one _split_det, each built
    # once; between rounds no split keeps an array with a per-character axis,
    # so the trace's tracemalloc peak is 4.3 MB (9.3 MB with every plan's
    # exponent table and character list kept at once).  The tori are
    # Z/n x Z/1, whose plans are those of Z/n, as only the split counts rank 2
    f = parse_laurent("1 + x + x^2 - x^-2", 2)
    quotients = [torus_quotient([n, 1]) for n in range(1, 401)]
    # the lone counts first, so the trace draws only primes already cached
    drawn = _drawn_primes(monkeypatch)
    lone = [fix_count(f, q) for q in quotients]
    lone_primes = sorted(drawn)
    drawn.clear()
    calls, built, held = [], [], []
    split_det, split_round = algebraic._split_det, algebraic._split_round
    split_plan = TorusQuotient.split_plan

    def round_spy(group):
        split_round(group)
        for s, _ in group:
            held.extend(a.size for a in vars(s).values() if isinstance(a, np.ndarray))

    monkeypatch.setattr(
        algebraic, "_split_det", lambda splits: calls.append(splits) or split_det(splits)
    )
    monkeypatch.setattr(algebraic, "_split_round", round_spy)
    monkeypatch.setattr(
        TorusQuotient, "split_plan", lambda q, f: built.append(q) or split_plan(q, f)
    )
    tracemalloc.start()
    try:
        trace = entropy_trace(f, quotients)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 1 and len(calls[0]) == len(quotients)
    assert built == quotients and sorted(drawn) == lone_primes
    # F vanishes at 4 characters of Z/n at most
    assert held and max(held) <= 4
    assert peak < 7 * 2**20, peak
    records = {r.label: r.log_fix_count for r in trace.records}
    skipped = {r.label: r.nullity for r in trace.skipped}
    assert len(records) + len(skipped) == len(quotients) and skipped
    for q, sc in zip(quotients, lone):
        if sc.is_finite:
            assert records[q.label] == log_big_int(sc.value)
        else:
            assert skipped[q.label] == sc.nullity


def test_many_term_count_keeps_temporaries_small():
    # 200 terms over (Z/16)^2 draw 33 primes of 256 characters each: every
    # term's values at once would take 33 x 200 x 256 int64, 13.5 MB, where
    # a slice of terms takes at most _CHAR_BLOCK of them, 0.5 MB
    rng = random.Random(233)
    terms = {(i, j): rng.choice((-1, 1)) for i in range(16) for j in range(13)}
    terms[0, 0] = 250  # dominant, so F has no zero on the torus
    f = GroupRingElement(2, dict(list(terms.items())[:200]))
    q = torus_quotient([16, 16])
    fix_count(f, q)  # the prime pool and the cached primes
    tracemalloc.start()
    try:
        sc = fix_count(f, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fhat = np.zeros((16, 16))
    for (i, j), c in f.terms.items():
        fhat[i, j] = c
    assert math.isclose(log_big_int(sc.value), np.log(np.abs(np.fft.fft2(fhat))).sum())
    assert peak < 4 * 2**20


def test_batched_split_with_one_group_per_round(monkeypatch):
    # an unbounded budget groups every plan of one block size whose orbit
    # counts lie within a factor of 2: here 8..16 orbits of 1 x 1 blocks,
    # then 3..5 orbits of 2 x 2 blocks, then 3 and 6 of 4 x 4 blocks
    log = _split_spies(monkeypatch)
    monkeypatch.setattr(algebraic, "_CHAR_BLOCK", 2**40)
    reflections = {(("r", 1),): -1, (("s", 1),): -1, (("r", -1), ("s", 1)): 1}
    rng = random.Random(227)
    laplacian = parse_laurent("4 - x - x^-1 - y - y^-1", 2)
    _, c12 = _abelian_pair([12], rng)
    _, c2x6 = _abelian_pair([2, 6], rng)
    f = parse_laurent("3 - x - x^-1 + x^2 - x^-3", 1)
    batteries = [
        [(f, torus_quotient([n])) for n in range(8, 17)]
        + [(parse_laurent("1 + x + x^2", 1), torus_quotient([n])) for n in (9, 12, 15)]
        + [(laplacian, torus_quotient([n, n])) for n in (3, 4)]
        + [(parse_laurent("5 - x - y^-1", 2), torus_quotient([3, 4]))]
        + [(parse_laurent("7 - x - y - z", 3), torus_quotient([2, 2, 3]))]
        + [(GroupRingElement(0, {(): 3, (("x", 1),): -1}), c12)]
        + [(GroupRingElement(0, {(): 1, (("x", 1),): 1, (("y", -1),): -1}), c2x6)],
        [
            (GroupRingElement(0, {(): lam, **reflections}), _dihedral(n))
            for n in (4, 5, 6, 7, 8)
            for lam in (1, 4)
        ],
        # padded orbits of 4 x 4 blocks, every orbit of characters a single one
        [
            (GroupRingElement(0, {(): lam, (("a", 1),): -1, (("b", 1),): -1}), q)
            for q in (_alternating4(), _alternating4(central=True))
            for lam in (2, 3)
        ],
    ]
    for pairs in batteries:
        groups = _assert_batch_matches_lone_counts(log, pairs)
        assert len(groups[0]) == len(pairs)
        # a plan draws in every round until it is done, so one group a round
        # holds a subset of the previous round's group
        ids = [{id(plan) for plan, _ in g} for g in groups]
        assert all(later <= earlier for earlier, later in zip(ids, ids[1:]))


def _abelian_pair(moduli, rng):
    """The same abelian group as a torus quotient and as an explicit table
    relabelled at random, with x and y mapped to its generators."""
    q = torus_quotient(moduli)
    d = q.size
    rank = len(moduli)
    table = [[q.index(_add(q.exponent(i), q.exponent(j), rank)) for j in range(d)] for i in range(d)]
    perm = list(range(d))
    rng.shuffle(perm)
    names = "xy"[:rank]
    units = [q.index(1 if rank == 1 else tuple(int(i == l) for i in range(rank))) for l in range(rank)]
    images = {names[l]: perm[units[l]] for l in range(rank)}
    return q, ExplicitQuotient(relabel_table(table, perm), images, f"table {q.label}")


def _add(u, v, rank):
    if rank == 1:
        return u + v
    return tuple(a + b for a, b in zip(u, v))


def test_one_route_across_quotient_families():
    rng = random.Random(167)
    singular = 0
    for moduli in ([6], [12], [2, 4], [3, 3]):
        tq, eq = _abelian_pair(moduli, rng)
        rank = len(moduli)
        for i in range(25):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                exp = tuple(rng.randint(-3, 3) for _ in range(rank))
                terms[exp] = terms.get(exp, 0) + rng.randint(-4, 4)
            if i % 3 == 0:
                # coefficient sum 0: the trivial character vanishes
                key = next(iter(terms))
                terms[key] -= sum(terms.values())
            f = GroupRingElement(rank, {(e[0] if rank == 1 else e): c for e, c in terms.items()})
            word = GroupRingElement(
                0,
                {tuple((g, x) for g, x in zip("xy", e) if x): c for e, c in terms.items()},
            )
            if f.is_zero:
                continue
            got, want = fix_count(word, eq), fix_count(f, tq)
            assert (got.value, got.nullity) == (want.value, want.nullity), (moduli, terms)
            singular += not want.is_finite
    assert singular >= 30


def test_character_prime_supply_is_finite():
    # only two candidates 1 + j * 2^29 lie in (2^30, 2^31)
    with pytest.raises(ResourceGuardError, match="primes"):
        _character_primes(2**29, 5)
    for m in (1, 2, 7, 24, 360):
        for p in _character_primes(m, 4):
            assert 2**30 < p < 2**31 and (p - 1) % m == 0


# ---------------------------------------------------------------------------
# explicit quotients: the cyclic-subgroup split against the dense oracle


def _explicit_quotients(rng):
    """(quotient, generator names) for cyclic groups, S3, SL(2,3) and SL(2,5),
    the last two also with their elements relabelled at random."""
    out = []
    for n in range(1, 13):
        out.append((ExplicitQuotient(cyclic_table(n), {"a": 1 % n}, f"C{n}"), "a"))
    table, perms = s3_table()
    images = {"s": perms.index((1, 0, 2)), "r": perms.index((1, 2, 0))}
    out.append((ExplicitQuotient(table, images, "S3"), "sr"))
    for p in (3, 5):
        table, a, b = sl2_table(p)
        out.append((ExplicitQuotient(table, {"a": a, "b": b}, f"SL(2,{p})"), "ab"))
        perm = list(range(len(table)))
        rng.shuffle(perm)
        relabelled = relabel_table(table, perm)
        out.append(
            (ExplicitQuotient(relabelled, {"a": perm[a], "b": perm[b]}, f"SL(2,{p})'"), "ab")
        )
    return out


def _random_word_element(rng, gens, balanced):
    """A random non-symmetric f over words of length <= 3 in the generators."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        word = tuple((rng.choice(gens), rng.choice((-1, 1))) for _ in range(rng.randint(0, 3)))
        terms[word] = rng.randint(-5, 5)
    if balanced and terms:
        # coefficient sum 0: the trivial representation is a zero
        key = next(iter(terms))
        terms[key] -= sum(terms.values())
    return GroupRingElement(0, terms)


def _order(q, x):
    acc, j = x, 1
    while acc != q.identity_index:
        acc, j = q.mul(acc, x), j + 1
    return j


def test_split_fix_count_matches_dense_oracle():
    rng = random.Random(83)
    singular = 0
    checked = 0
    for q, gens in _explicit_quotients(rng):
        # the dense oracle costs up to 0.4 s per SL(2,5) case
        for i in range(2 if q.size == 120 else 12):
            f = _random_word_element(rng, gens, balanced=i % 3 == 0)
            if f.is_zero:
                continue
            want = _assert_matches_oracle(f, q)
            singular += not want.is_finite
            checked += 1
    assert checked >= 150
    assert singular >= 40


def test_split_fix_count_singular_and_folds_to_zero():
    rng = random.Random(89)
    for q, gens in _explicit_quotients(rng):
        if q.size > 24:
            continue
        g = gens[0]
        order = _order(q, q.index(((g, 1),)))
        # a - a^(order+1) folds to 0: every h is a solution
        f = GroupRingElement(0, {((g, 1),): 1, ((g, order + 1),): -1})
        assert _assert_matches_oracle(f, q).nullity == q.size
        # 1 - a: kills the functions constant on the right cosets of <a>
        f = GroupRingElement(0, {(): 1, ((g, 1),): -1})
        assert _assert_matches_oracle(f, q).nullity == q.size // order


def test_split_fix_count_huge_coefficients():
    top = 2**63 - 1
    rng = random.Random(97)
    for q, gens in _explicit_quotients(rng):
        if q.size > 24:
            continue
        a, b = gens[0], gens[-1]
        cases = [
            {(): top, ((a, 1),): -(top - 1)},
            {(): top, ((a, 1),): -top},
            {(): top, ((a, 1), (b, 1)): top, ((b, -1),): -(top - 2)},
        ]
        for terms in cases:
            _assert_matches_oracle(GroupRingElement(0, terms), q)
    table, a, b = sl2_table(3)
    q = ExplicitQuotient(table, {"a": a, "b": b})
    # the split lifts from primes above 2^30; scalar top gives top^24 exactly
    assert fix_count(GroupRingElement(0, {(): top}), q).value == top**24


def test_split_fix_count_prime_multiple_coefficients():
    # multiples of the first split prime vanish modulo it, so the blocks
    # need other pivots (and row swaps) there than modulo the other primes;
    # a multiple of the product P of the first three primes makes every
    # block 0 modulo each of them, and only the norm budget finds the rank
    rng = random.Random(101)
    for q, gens in _explicit_quotients(rng):
        if q.size > 24:
            continue
        k = max(_order(q, x) for x in range(q.size))
        p = _character_primes(k, 1)[0]
        product = math.prod(_character_primes(k, 3))
        a, b = gens[0], gens[-1]
        for terms in (
            {(): 2 * p, ((a, 1),): -p, ((b, 1), (a, 1)): 1},
            {(): p, ((a, -1),): 3 * p, ((b, 2),): -1, ((a, 1), (b, 1)): 2},
            {(): 2 * product, ((a, 1),): -product},
            {(): product, ((a, 1),): -product},
        ):
            _assert_matches_oracle(GroupRingElement(0, terms), q)
    for q, gens in _explicit_quotients(rng):
        if q.label not in ("S3", "SL(2,3)"):
            continue
        k = max(_order(q, x) for x in range(q.size))
        product = math.prod(_character_primes(k, 3))
        a = gens[0]
        order = _order(q, q.index(((a, 1),)))
        sc = fix_count(GroupRingElement(0, {(): 2 * product, ((a, 1),): -product}), q)
        # P (2 - a) is P times a circulant 2 - shift on each right coset of <a>
        assert sc.value == product**q.size * (2**order - 1) ** (q.size // order)
        sc = fix_count(GroupRingElement(0, {(): product, ((a, 1),): -product}), q)
        assert (sc.value, sc.nullity) == (None, q.size // order)


def test_split_fix_count_agrees_with_fk_determinant_and_guard(monkeypatch):
    table, a, b = sl2_table(5)
    q = ExplicitQuotient(table, {"a": a, "b": b})
    f = GroupRingElement(0, {parse_word(w): c for w, c in (("e", 5), ("a", -1), ("b^-1", -2))})
    sc = fix_count(f, q)
    assert fk_determinant_quotient(f, q) == pytest.approx(
        math.exp(log_big_int(sc.value) / q.size), rel=1e-15
    )
    work = algebraic._Split(q.split_plan(f)).work
    monkeypatch.setattr(algebraic, "COST_CAP", work - 1)
    with pytest.raises(ResourceGuardError, match=f"work {work} so far"):
        fix_count(f, q)
    with pytest.raises(ValueError, match="mismatch"):
        fix_count(parse_laurent("3 - x", 1), q)


def _s3_one_minus_s():
    table, perms = s3_table()
    q = ExplicitQuotient(table, {"s": perms.index((1, 0, 2)), "r": perms.index((1, 2, 0))})
    return GroupRingElement(0, {(): 1, (("s", 1),): -1}), q


def _forbid_dense_route(monkeypatch):
    """Make every entry point of the dense route raise, wherever it is defined."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix built on an explicit quotient")

    for name in ("regular_rep_matrix", "smith_normal_form", "det_abs_exact"):
        monkeypatch.setattr(algebraic, name, refuse, raising=False)
        monkeypatch.setattr(helpers, name, refuse)


def test_singular_explicit_fix_count_skips_dense_determinant(monkeypatch):
    f, q = _s3_one_minus_s()
    _forbid_dense_route(monkeypatch)
    sc = fix_count(f, q)
    assert (sc.value, sc.nullity) == (None, 3)


def test_fk_determinant_singular_explicit_skips_snf(monkeypatch):
    f, q = _s3_one_minus_s()
    _forbid_dense_route(monkeypatch)
    with pytest.raises(NotInvertibleError):
        fk_determinant_quotient(f, q)


def _ring_mul(f, g):
    """The product f g in the integral group ring of the free group."""
    terms = {}
    for u, a in f.terms.items():
        for v, b in g.terms.items():
            w = u + v
            terms[w] = terms.get(w, 0) + a * b
    return GroupRingElement(0, terms)


def _singular_explicit_cases(rng):
    """(kind, f, q, nullity or None) on S3, SL(2,3) and SL(2,5), natural and
    relabelled: f(1) = 0, left and right multiples of 1 - a, of the sum over
    <a> and of a balanced f, folds to zero, and a sign-twisted projector on
    S3."""
    for q, gens in _explicit_quotients(rng):
        if q.label.startswith("C"):
            continue
        a = gens[0]
        order = _order(q, q.index(((a, 1),)))
        one_minus_a = GroupRingElement(0, {(): 1, ((a, 1),): -1})
        orbit_sum = GroupRingElement(0, {((a, e),): 1 for e in range(order)})
        yield "1 - a", one_minus_a, q, q.size // order
        yield "fold to zero", GroupRingElement(0, {((a, 1),): 2, ((a, 1 + order),): -2}), q, q.size
        for i in range(1 if q.size == 120 else 3):
            u = _random_word_element(rng, gens, balanced=False)
            if u.is_zero:
                continue
            yield "f(1) = 0", _random_word_element(rng, gens, balanced=True), q, None
            yield "(1 - a) u", _ring_mul(one_minus_a, u), q, None
            yield "u (1 - a)", _ring_mul(u, one_minus_a), q, None
            yield "sum over <a> times u", _ring_mul(u, orbit_sum), q, None
            balanced = _random_word_element(rng, gens, balanced=True)
            yield "u times f(1) = 0", _ring_mul(balanced, u), q, None
    table, perms = s3_table()
    q = ExplicitQuotient(table, {"s": perms.index((1, 0, 2)), "r": perms.index((1, 2, 0))})
    # 1 + s vanishes on the sign representation and is singular on the
    # standard one; 6 - sum sgn(g) g vanishes on the sign representation only
    yield "1 + s", GroupRingElement(0, {(): 1, (("s", 1),): 1}), q, 3
    signed = {(): 6}
    for w, sign in (((), -1), ((("s", 1),), 1), ((("r", 1),), -1), ((("r", -1),), -1),
                    ((("s", 1), ("r", 1)), 1), ((("r", 1), ("s", 1)), 1)):
        signed[w] = signed.get(w, 0) + sign
    yield "6 - sum sgn(g) g", GroupRingElement(0, signed), q, 1


def test_singular_explicit_nullity_battery():
    rng = random.Random(151)
    kinds = {}
    nullities = set()
    by_fraction = {6: 0, 24: 0, 120: 0}
    for kind, f, q, known in _singular_explicit_cases(rng):
        sc = _assert_matches_every_character(f, q)
        rows = regular_rep_matrix(f, q).tolist()
        nullity = smith_normal_form(rows).count(0)
        assert nullity > 0, (kind, f.render(), q.label)
        assert known in (None, nullity), (kind, q.label)
        assert (sc.value, sc.nullity) == (None, nullity), (kind, f.render(), q.label)
        # rational elimination takes about 3 s at d = 120: once there
        if q.size < 120 or not by_fraction[120]:
            assert q.size - rank_fraction(rows) == nullity, (kind, q.label)
            by_fraction[q.size] += 1
        kinds[kind] = kinds.get(kind, 0) + 1
        nullities.add(nullity)
    assert len(kinds) == 9
    assert kinds["f(1) = 0"] >= 8
    assert by_fraction[6] >= 10 and by_fraction[24] >= 20 and by_fraction[120] == 1
    assert {1, 3, 8, 24}.issubset(nullities)
    assert max(nullities) == 120


def test_split_nullity_when_a_prime_drops_rank(monkeypatch):
    # f = (1 - a)(p + 1 - b) for a split prime p: over Q the second factor
    # is invertible, so the nullity is that of 1 - a, d / ord(a); modulo p,
    # f is (1 - a)(1 - b), of lower rank, so only the largest rank over the
    # primes is the rank over Q.  p is the first prime, and then, with one
    # prime per chunk, the last one drawn (every such p has 31 bits, so the
    # budgets, and the primes drawn, do not depend on which)
    drawn = _drawn_primes(monkeypatch)
    rng = random.Random(157)
    for q, gens in _explicit_quotients(rng):
        if q.label.startswith("C") or q.size > 24:
            continue
        a, b = gens[0], gens[-1]
        k = max(_order(q, x) for x in range(q.size))

        def times_one_minus_a(p):
            return _ring_mul(
                GroupRingElement(0, {(): 1, ((a, 1),): -1}),
                GroupRingElement(0, {(): p + 1, ((b, 1),): -1}),
            )

        first = _character_primes(k, 1)[0]
        with monkeypatch.context() as one_prime_chunks:
            one_prime_chunks.setattr(algebraic, "_CHAR_BLOCK", 1)
            _count_drawn(drawn, times_one_minus_a(first), q)
            last = drawn[-1]
            assert len(drawn) > 1
            for p in (first, last):
                want = _assert_matches_oracle(times_one_minus_a(p), q)
                assert want.nullity == q.size // _order(q, q.index(((a, 1),)))
                assert drawn[-1] == last


def test_singular_sl2_7_laplacian_nullity(monkeypatch):
    # 4 - a - a^-1 - b - b^-1 is the Laplacian of the connected 4-regular
    # Cayley graph of SL(2,7): its kernel is the constants, nullity 1
    table, a, b = sl2_table(7)
    q = ExplicitQuotient(table, {"a": a, "b": b}, "SL(2,7)")
    f = GroupRingElement(
        0, {parse_word(w): -1 for w in ("a", "a^-1", "b", "b^-1")} | {(): 4}
    )
    _forbid_dense_route(monkeypatch)
    sc = fix_count(f, q)
    assert (sc.value, sc.nullity) == (None, 1)


# ---------------------------------------------------------------------------
# one block per orbit of the normaliser, over a grown abelian subgroup


def _laplacian(lam, gens="ab"):
    return GroupRingElement(
        0, {parse_word(w): -1 for g in gens for w in (g, g + "^-1")} | {(): lam}
    )


def _asymmetric(a="a", b="b"):
    words = (("e", 5), (a, -1), (f"{b}^-1", -2), (f"{a}*{b}", 1))
    return GroupRingElement(0, {parse_word(w): c for w, c in words})


def test_orbit_split_on_relabelled_sl2():
    rng = random.Random(179)
    for p in (3, 5, 7):
        table, a, b = sl2_table(p)
        perm = list(range(len(table)))
        rng.shuffle(perm)
        q = ExplicitQuotient(relabel_table(table, perm), {"a": perm[a], "b": perm[b]})
        for f in (_laplacian(5), _laplacian(4), _asymmetric()):
            _assert_matches_every_character(f, q)
        assert fix_count(_laplacian(4), q).nullity == 1


def test_sl2_11_laplacian_counts_by_default():
    # d = 1320: the Laplacian's kernel is the constants
    table, a, b = sl2_table(11)
    q = ExplicitQuotient(table, {"a": a, "b": b}, "SL(2,11)")
    got = fix_count(_laplacian(4), q)
    assert got.nullity == 1
    want = every_character_count(_laplacian(4), q)
    assert (got.value, got.nullity) == (want.value, want.nullity)


def test_sl2_orbit_sizes():
    # A = <-u>, u = [[1, 2], [0, 1]], of order 2p is its own centraliser, so
    # it does not grow; the Borel subgroup normalises it and multiplies j
    # mod 2p by the odd e that are squares mod p: orbits {0}, {p} and four
    # of (p - 1) / 2.  A symmetric f closes them under j -> -j too, which
    # merges them in pairs when -1 is not a square mod p (p = 3 mod 4)
    for p in (5, 7, 11):
        table, a, b = sl2_table(p)
        q = ExplicitQuotient(table, {"a": a, "b": b})
        plan = q.split_plan(_laplacian(5))
        assert plan.moduli == (2 * p,) and plan.symmetric
        assert plan.cols.shape == (5, (p * p - 1) // 2)
        merged = [p - 1] * 2 if p % 4 == 3 else [(p - 1) // 2] * 4
        assert sorted(plan.orbit_sizes.tolist()) == [1, 1] + merged
        sizes = dict(zip(plan.orbit_reps.tolist(), plan.orbit_sizes.tolist()))
        assert sizes[0] == sizes[p] == 1
        plan = q.split_plan(_asymmetric())
        assert not plan.symmetric
        assert sorted(plan.orbit_sizes.tolist()) == [1, 1] + [(p - 1) // 2] * 4


def _plan_bytes(plan):
    return sum(a.nbytes for a in vars(plan).values() if isinstance(a, np.ndarray))


def test_torus_plans_have_trivial_orbits():
    # every character its own orbit, said without listing the characters
    for moduli, poly in (([1], "3 - x"), ([7], "3 - x"), ([4, 6], "5 - x*y^-1"),
                         ([2, 3, 2], "7 - x - y^-1 - z")):
        plan = torus_quotient(moduli).split_plan(parse_laurent(poly, len(moduli)))
        assert plan.orbit_reps is None and plan.orbit_sizes is None
        assert plan.orbits == math.prod(moduli)
    # so a plan's size does not grow with |A|
    f = parse_laurent("3 - x - x^-1", 1)
    small, large = (torus_quotient([n]).split_plan(f) for n in (10, 10**5))
    assert large.orbits == 10**5
    assert _plan_bytes(small) == _plan_bytes(large) > 0


def test_abelian_tables_split_into_characters():
    # the grown A of an abelian table is the whole group: 1 x 1 blocks
    for k in (1, 3, 6):
        d = 2**k
        q = ExplicitQuotient([[i ^ j for j in range(d)] for i in range(d)],
                             {f"g{i}": 1 << i for i in range(k)})
        terms = {((f"g{i}", 1),): -1 for i in range(k)}
        f = GroupRingElement(0, terms | {(): 2 * k + 1, (("g0", 1), (f"g{k - 1}", 1)): 1})
        plan = q.split_plan(f)
        assert plan.moduli == (2,) * k and plan.cols.shape[1] == 1
        assert fix_count(f, q).value == det_abs_exact(regular_rep_matrix(f, q))
    # x has order 2 in (Z/2 x Z/4) and (Z/2 x Z/6), where 6 - x - 2 x^-2 is
    # symmetric, so their non-real characters pair up with their inverses;
    # 6 - x - 2 y is symmetric in neither, every character its own orbit
    rng = random.Random(181)
    merged = {(2, 4): [1, 1, 2, 2, 1, 1], (2, 6): [1, 1, 2, 2, 2, 2, 1, 1]}
    for moduli in ([12], [2, 4], [3, 3], [2, 6], [4, 4]):
        tq, eq = _abelian_pair(moduli, rng)
        f = GroupRingElement(0, {(): 6, (("x", 1),): -1, (("x", -2),): -2})
        plan = eq.split_plan(f)
        assert math.prod(plan.moduli) == tq.size and plan.cols.shape[1] == 1
        assert plan.orbit_sizes.tolist() == merged.get(tuple(moduli), [1] * tq.size)
        assert plan.symmetric == (tuple(moduli) in merged)
        _assert_matches_every_character(f, eq)
        g = GroupRingElement(0, {(): 6, (("x", 1),): -1, (("xy"[len(moduli) - 1], 1),): -2})
        plan = eq.split_plan(g)
        assert not plan.symmetric and plan.orbit_sizes.tolist() == [1] * tq.size
        _assert_matches_every_character(g, eq)


def test_heisenberg_tables_split_over_a_rank_two_subgroup():
    for n in range(2, 7):
        table, x, y = heisenberg_table(n)
        q = ExplicitQuotient(table, {"x": x, "y": y}, f"H3(Z/{n})")
        for f in (_laplacian(5, "xy"), _asymmetric("x", "y")):
            got = _assert_matches_every_character(f, q)
            # the dense oracle takes 0.6 s at d = 216: once there
            if n < 6 or f == _laplacian(5, "xy"):
                assert got.value == det_abs_exact(regular_rep_matrix(f, q)), q.label
        assert _assert_matches_every_character(_laplacian(4, "xy"), q).nullity == 1
    # H3(Z/9): A = (Z/9)^2, 81 blocks of 9 x 9; the characters trivial on
    # the centre are fixed, the others fall into orbits of 3 and of 9.  The
    # symmetric Laplacian pairs each non-trivial orbit with its inverse
    table, x, y = heisenberg_table(9)
    q = ExplicitQuotient(table, {"x": x, "y": y})
    plan = q.split_plan(_laplacian(5, "xy"))
    assert plan.moduli == (9, 9) and plan.cols.shape == (5, 9) and plan.symmetric
    assert sorted(plan.orbit_sizes.tolist()) == [1] + [2] * 4 + [6] * 3 + [18] * 3
    plan = q.split_plan(_asymmetric("x", "y"))
    assert plan.moduli == (9, 9) and not plan.symmetric
    assert sorted(plan.orbit_sizes.tolist()) == [1] * 9 + [3] * 6 + [9] * 6


# ---------------------------------------------------------------------------
# the square-root lift of a symmetric f: |det M| = |S| H^2


def _plus_adjoint(u):
    """u + u*, a symmetric element."""
    terms = dict(u.terms)
    for w, c in involution(u).terms.items():
        terms[w] = terms.get(w, 0) + c
    return GroupRingElement(0, terms)


def _lift_battery_quotients(rng):
    """(quotient, generator names): SL(2,p) for p <= 7 and Z/n tables,
    relabelled at random, H3(Z/n) for n <= 6 and the XOR tables (Z/2)^k."""
    out = []
    for p in (3, 5, 7):
        table, a, b = sl2_table(p)
        perm = list(range(len(table)))
        rng.shuffle(perm)
        images = {"a": perm[a], "b": perm[b]}
        out.append((ExplicitQuotient(relabel_table(table, perm), images, f"SL(2,{p})'"), "ab"))
    for n in range(2, 7):
        table, x, y = heisenberg_table(n)
        out.append((ExplicitQuotient(table, {"x": x, "y": y}, f"H3(Z/{n})"), "xy"))
    for k in range(1, 5):
        d = 2**k
        table = [[i ^ j for j in range(d)] for i in range(d)]
        images = {"abcd"[i]: 1 << i for i in range(k)}
        out.append((ExplicitQuotient(table, images, f"(Z/2)^{k}"), "abcd"[:k]))
    for n in (2, 3, 4, 5, 6, 8, 12):
        perm = list(range(n))
        rng.shuffle(perm)
        out.append((ExplicitQuotient(relabel_table(cyclic_table(n), perm), {"a": perm[1 % n]}), "a"))
    return out


def _lift_battery_elements(rng, q, gens):
    """(symmetric?, f): random symmetric u + u*, one of them balanced (so
    singular), v* (p + 2 - b - b^-1) v with v = 1 - a, singular like 1 - a
    while its middle factor is singular mod p, and random non-symmetric f,
    one of them balanced."""
    a, b = gens[0], gens[-1]
    one_minus_a = GroupRingElement(0, {(): 1, ((a, 1),): -1})
    p = _character_primes(max(_order(q, x) for x in range(q.size)), 1)[0]
    middle = GroupRingElement(0, {(): p + 2, ((b, 1),): -1, ((b, -1),): -1})
    yield True, _ring_mul(_ring_mul(involution(one_minus_a), middle), one_minus_a)
    for i in range(3):
        yield True, _plus_adjoint(_random_word_element(rng, gens, balanced=i == 0))
        yield False, _random_word_element(rng, gens, balanced=i == 0)


def test_symmetric_lift_matches_the_general_route():
    # every count and nullity as the oracle's, which clears the symmetry
    # flag, and as the dense determinant's at d <= 64
    rng = random.Random(233)
    tally = {(flag, finite): 0 for flag in (True, False) for finite in (True, False)}
    for q, gens in _lift_battery_quotients(rng):
        for symmetric, f in _lift_battery_elements(rng, q, gens):
            if f.is_zero:
                continue
            plan = q.split_plan(f)
            assert plan.symmetric or not symmetric, (f.render(), q.label)
            got = _assert_matches_every_character(f, q)
            if q.size <= 64:
                det = det_abs_exact(regular_rep_matrix(f, q))
                assert (got.value or 0) == det, (f.render(), q.label)
            tally[plan.symmetric, got.is_finite] += 1
    assert min(tally.values()) >= 10, tally


def test_symmetric_lift_on_relabelled_sl2_11(monkeypatch):
    # d = 1320 with its identity moved off index 0: lambda = 5 lifts H in 54
    # primes over 4 blocks, where the oracle lifts det M in 107 over 22.  S,
    # the two real blocks, |S| <= 9^120, is lifted from the first 13 primes
    # (rounds of four, the last cut at 13), so the other 41 build the two
    # blocks of H alone
    rng = random.Random(239)
    table, a, b = sl2_table(11)
    perm = list(range(len(table)))
    rng.shuffle(perm)
    q = ExplicitQuotient(relabel_table(table, perm), {"a": perm[a], "b": perm[b]}, "SL(2,11)'")
    assert q.identity_index != 0
    f = _laplacian(5)
    plan = q.split_plan(f)
    assert plan.symmetric and plan.orbits == 4
    split = algebraic._Split(plan)
    assert split.det_need == 54
    assert algebraic._crt_prime_count(29**1320) == 107
    assert split.s_need == algebraic._crt_prime_count(9**120, 1) == 13
    blocks = []
    kernel = algebraic._det_mod_batched
    monkeypatch.setattr(
        algebraic, "_det_mod_batched", lambda a, mods: blocks.append(len(a)) or kernel(a, mods)
    )
    got = fix_count(f, q)
    assert sum(blocks) == 13 * 4 + 41 * 2
    monkeypatch.setattr(algebraic, "_det_mod_batched", kernel)
    want = every_character_count(f, q)
    assert got.is_finite and got.value == want.value


def test_symmetric_lift_when_a_prime_drops_rank(monkeypatch):
    # a symmetric f, invertible over Q, with a block singular mod the first
    # prime p, drawn alone: that block's det is 0 in only one of H and S, and
    # the other keeps its true residue at p.  p + 2 - b - b^-1 vanishes mod p
    # at the trivial character, which is real; c + a + a^-1 on Z/n, with
    # c = -(w + w^-1) mod p for the root w the split takes, at a non-real one
    drawn = _drawn_primes(monkeypatch)
    monkeypatch.setattr(algebraic, "_CHAR_BLOCK", 1)
    cases = []
    for q, gens in _explicit_quotients(random.Random(241)):
        if q.size in (6, 24):
            k = math.lcm(*q.split_plan(GroupRingElement(0, {(): 1})).moduli)
            p = _character_primes(k, 1)[0]
            b = gens[-1]
            cases.append((GroupRingElement(0, {(): p + 2, ((b, 1),): -1, ((b, -1),): -1}), q, p))
    for n in (5, 8, 12):
        p = _character_primes(n, 1)[0]
        w = int(algebraic._root_powers([n], [p])[0, 1])
        c = -(w + pow(w, -1, p)) % p
        f = GroupRingElement(0, {(): c, (("a", 1),): 1, (("a", -1),): 1})
        cases.append((f, ExplicitQuotient(cyclic_table(n), {"a": 1}), p))
    for f, q, p in cases:
        assert q.split_plan(f).symmetric
        det = det_abs_exact(regular_rep_matrix(f, q))
        assert det and det % p == 0, (f.render(), q.label)
        sc, _ = _count_drawn(drawn, f, q)
        assert drawn[0] == p and len(drawn) > 1
        assert sc.value == det, (f.render(), q.label)
        _assert_matches_every_character(f, q)
    assert len(cases) == 7


def test_symmetric_prime_count_is_the_largest_bound():
    # on a symmetric plan the count is the largest of H's, S's and the rank
    # budget's; on any other, Hadamard's
    table, a, b = sl2_table(7)
    q = ExplicitQuotient(table, {"a": a, "b": b})
    for f, squares, l1 in ((_laplacian(5), 29, 9), (_asymmetric(), 31, 9)):
        plan = q.split_plan(f)
        full = algebraic._crt_prime_count(squares**336)
        h = algebraic._crt_prime_count(squares**336, 4)
        # two real characters, 0 and 7, and phi(14) / 2 = 3
        s = min(full, algebraic._crt_prime_count(l1 ** (24 * 2), 1))
        rank = algebraic._crt_prime_count(l1 ** (24 * 3), 1)
        want = max(h, s, rank) if plan.symmetric else full
        assert algebraic._Split(plan).det_need == want
        assert (h, s, rank) == (14, 6, 8)
    # (Z/2)^6: every character real, so S is det M and lifts in full, and
    # H = 1 needs nothing it does not draw anyway
    d = 64
    q = ExplicitQuotient([[i ^ j for j in range(d)] for i in range(d)], {"abcdef"[i]: 1 << i for i in range(6)})
    f = GroupRingElement(0, {(): 7, (("a", 1),): -1, (("f", 1),): -2, (("a", 1), ("b", 1)): 1})
    plan = q.split_plan(f)
    split = algebraic._Split(plan)
    assert plan.symmetric and not split.h_sizes.any()
    assert split.det_need == algebraic._crt_prime_count(55**d)
    assert fix_count(f, q).value == det_abs_exact(regular_rep_matrix(f, q))


def test_priced_plan_matches_the_pricing_oracle():
    # _Split's budgets, work and supply are those of the pricing formulas
    # (helpers.split_price) on the torus, explicit, singular, relabelled
    # SL(2,p) and rank-1 batteries
    rng = random.Random(293)
    cases = [_random_torus_case(rng, 1 + i % 3, balanced=i % 4 == 0) for i in range(60)]
    for q, gens in _explicit_quotients(rng):
        for i in range(2):
            u = _random_word_element(rng, gens, balanced=i == 0)
            cases += [(u, q), (_plus_adjoint(u), q)]
    cases += [(f, q) for _, f, q, _ in _singular_explicit_cases(rng)]
    for p in (3, 5, 7):
        table, a, b = sl2_table(p)
        perm = list(range(len(table)))
        rng.shuffle(perm)
        q = ExplicitQuotient(relabel_table(table, perm), {"a": perm[a], "b": perm[b]})
        cases += [(_laplacian(5), q), (_laplacian(4), q)]
        cases += [(_plus_adjoint(_random_word_element(rng, "ab", False)), q) for _ in range(2)]
    fs = {f.render(): f for f, _ in _rank1_route_battery()}
    cases += [(f, torus_quotient([n])) for f in fs.values() for n in range(1, 105)]
    symmetric = 0
    for f, q in cases:
        split = algebraic._Split(q.split_plan(f))
        got = (split.det_need, split.s_need, split.work, split.supply)
        assert got == helpers.split_price(f, q), (f.render(), q.label)
        symmetric += split.plan.symmetric and split.s_need > 0
    assert symmetric >= 20


def test_symmetric_count_reads_its_real_characters_once(monkeypatch):
    # the real orbits, the one unravelling of the orbit representatives'
    # coordinates in algebraic, are read once per symmetric count, as its
    # plan is priced, and that one read serves its budgets and its lift
    table, a, b = sl2_table(5)
    q = ExplicitQuotient(table, {"a": a, "b": b})
    f = _laplacian(5)
    assert q.split_plan(f).symmetric
    reads = []
    unravel = np.unravel_index

    def spy(*args):
        if sys._getframe(1).f_globals["__name__"] == algebraic.__name__:
            reads.append(args)
        return unravel(*args)

    monkeypatch.setattr(np, "unravel_index", spy)
    got = fix_count(f, q)
    assert len(reads) == 1
    monkeypatch.setattr(np, "unravel_index", unravel)
    assert got.value == every_character_count(f, q).value


def test_det_equals_snf_product_equals_count():
    # exact big-integer identity along the whole pipeline
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 5)
        f = GroupRingElement(1, {e: rng.randint(-2, 2) for e in (-1, 0, 1)})
        if f.is_zero:
            continue
        m = regular_rep_matrix(f, torus_quotient([n]))
        det = det_abs_exact(m)
        if det == 0:
            continue
        factors = smith_normal_form(m)
        assert math.prod(factors) == det
        assert count_solutions(m).value == det


# ---------------------------------------------------------------------------
# determinants with normalized trace, logs


def test_fk_determinant_examples():
    for n in (1, 3, 10):
        assert fk_determinant_quotient(parse_laurent("4", 1), torus_quotient([n])) == pytest.approx(4.0, abs=1e-12)
    for n in (2, 5, 20):
        expected = (2**n - 1) ** (1.0 / n)
        got = fk_determinant_quotient(parse_laurent("x - 2", 1), torus_quotient([n]))
        assert got == pytest.approx(expected, rel=1e-12)
    assert fk_determinant_quotient(parse_laurent("1", 1), torus_quotient([7])) == pytest.approx(1.0, abs=1e-15)


def test_fk_determinant_singular_raises():
    with pytest.raises(NotInvertibleError):
        fk_determinant_quotient(parse_laurent("x - 1", 1), torus_quotient([4]))


def test_log_big_int():
    assert log_big_int(1) == 0.0
    for k in (1, 10, 52, 53, 200, 5000):
        assert log_big_int(2**k) == pytest.approx(k * math.log(2), rel=1e-15)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    rng = random.Random(43)
    for _ in range(50):
        n = rng.getrandbits(rng.randint(2, 4000)) | 1
        exact = float(mp.log(mp.mpf(n)))
        assert log_big_int(n) == pytest.approx(exact, rel=1e-14)
    with pytest.raises(ValueError):
        log_big_int(0)


# ---------------------------------------------------------------------------
# entropy traces


@pytest.mark.parametrize("value, nullity, message", [
    (0, 0, "finite solution count must be >= 1"),
    (5, 1, "finite count cannot carry a nullity"),
    (None, 0, "infinite count requires nullity >= 1"),
], ids=["count below 1", "finite with a nullity", "infinite without one"])
def test_solution_count_invariants(value, nullity, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        algebraic.SolutionCount(value, nullity)


def test_trace_bernoulli_constant():
    f = parse_laurent("3", 1)
    quotients = [torus_quotient([n]) for n in (2, 4, 8)]
    trace = entropy_trace(f, quotients)
    assert [r.h_n for r in trace.records] == pytest.approx(
        [math.log(3)] * 3, abs=1e-12
    )


def test_trace_expanding_closed_form():
    f = parse_laurent("x - 2", 1)
    quotients = [torus_quotient([n]) for n in range(1, 31)]
    trace = entropy_trace(f, quotients, reference=math.log(2))
    assert len(trace.records) == 30
    for n, record in zip(range(1, 31), trace.records):
        assert record.h_n == pytest.approx(math.log(2**n - 1) / n, rel=1e-13)
    values = [r.h_n for r in trace.records]
    assert values == sorted(values)
    assert trace.residual == pytest.approx(abs(math.log(2**30 - 1) / 30 - math.log(2)), rel=1e-9)


def test_trace_skips_singular_quotients():
    f = parse_laurent("x - 1", 1)
    trace = entropy_trace(f, [torus_quotient([4])])
    assert trace.records == []
    assert len(trace.skipped) == 1
    assert trace.skipped[0].nullity == 1
    assert trace.skipped[0].label == "Z/4"


def test_trace_kernel_caveat():
    # support element 4 dies in Z/4 but not in Z/8
    f = parse_laurent("x^4 - 3", 1)
    trace = entropy_trace(f, [torus_quotient([4]), torus_quotient([8])])
    assert any("kernel" in note and "Z/4" in note for note in trace.caveats)
    assert not any("Z/8" in note for note in trace.caveats)


def test_trace_caveats_in_quotient_order_each_once():
    # x^2 and x^4 die in Z/2, x^4 in Z/4 too; a repeated quotient notes once
    f = parse_laurent("x^4 + x^2 - 5", 1)
    trace = entropy_trace(f, [torus_quotient([n]) for n in (2, 2, 3, 4, 4, 8)])
    assert trace.caveats == [
        "support element 2 lies in the kernel at Z/2",
        "support element 4 lies in the kernel at Z/2",
        "support element 4 lies in the kernel at Z/4",
    ]


def test_trace_refuses_a_rank_mismatch_or_an_unknown_generator():
    with pytest.raises(ValueError, match=r"^element/quotient mode mismatch \(ranks 2 and 1\)$"):
        entropy_trace(parse_laurent("5 - x - y", 2), [torus_quotient([3])])
    q = ExplicitQuotient(cyclic_table(3), {"a": 1}, label="C3")
    with pytest.raises(ValueError, match=r"^element/quotient mode mismatch \(ranks 1 and 0\)$"):
        entropy_trace(parse_laurent("3 - x", 1), [q])
    f = GroupRingElement(0, {(): 3, parse_word("b"): -1})
    with pytest.raises(ValueError, match="^unknown generator 'b' for quotient C3$"):
        entropy_trace(f, [q])


def test_trace_requires_ordered_quotients():
    f = parse_laurent("x - 2", 1)
    with pytest.raises(ValueError, match="nondecreasing"):
        entropy_trace(f, [torus_quotient([4]), torus_quotient([2])])
    with pytest.raises(ValueError, match="quotient"):
        entropy_trace(f, [])


def test_bernoulli_constant_on_explicit_nonabelian_quotient():
    # k times the identity gives h = log k on any quotient, abelian or not
    from sofic import ExplicitQuotient, GroupRingElement

    from helpers import s3_table

    table, _ = s3_table()
    q = ExplicitQuotient(table, {"s": 1, "r": 3}, label="S3")
    for k in (2, 3, 5):
        f = GroupRingElement(0, {(): k})
        sc = fix_count(f, q)
        assert sc.value == k**6
        h = log_big_int(sc.value) / q.size
        assert abs(h - math.log(k)) <= 1e-12


def test_trace_rank3_and_rank4_paths():
    from sofic import mahler_quadrature

    f3 = parse_laurent("9 - x - x^-1 - y - y^-1 - z - z^-1", 3)
    reference = mahler_quadrature(f3, 32).value
    quotients = [torus_quotient([n, n, n]) for n in (2, 4)]
    trace = entropy_trace(f3, quotients, reference=reference)
    assert [r.d for r in trace.records] == [8, 64]
    assert abs(trace.records[-1].h_n - reference) < 1e-2

    f4 = parse_laurent("17 - x - x^-1 - y - y^-1 - z - z^-1 - w - w^-1", 4)
    reference4 = mahler_quadrature(f4, 12).value
    q = torus_quotient([4, 4, 4, 4])
    sc = fix_count(f4, q)
    h = log_big_int(sc.value) / q.size
    assert abs(h - reference4) < 1e-3


def test_trace_serialization_stable(capsys):
    from sofic.cli import main

    argv = ["algebraic", "--group", "Z", "--poly", "x - 2", "--quotients", "1..3"]

    def report(fmt):
        main(argv + ["--format", fmt])
        return capsys.readouterr().out

    csv_text = report("csv")
    lines = csv_text.strip().split("\n")
    assert lines[0] == "label,d,log_fix_count,h_n"
    assert lines[1] == "Z/1,1,0.0,0.0"
    assert len(lines) == 4
    json_text = report("json")
    obj = json.loads(json_text)
    assert obj["f_description"] == "-2 + x"
    assert [r["d"] for r in obj["records"]] == [1, 2, 3]
    assert obj["skipped"] == []
    # byte-identical on recompute
    assert report("csv") == csv_text
    assert report("json") == json_text
