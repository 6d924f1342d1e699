import json
import math
import random

import pytest

from sofic import (
    ExplicitQuotient,
    GroupRingElement,
    NotInvertibleError,
    count_solutions,
    det_abs_exact,
    entropy_trace,
    fix_count,
    fk_determinant_quotient,
    involution,
    left_translate,
    log_big_int,
    parse_laurent,
    parse_word,
    regular_rep_matrix,
    smith_normal_form,
    torus_quotient,
)
from sofic import algebraic
from sofic.algebraic import _character_primes, _det_bareiss, _det_modular
from sofic.groups import ResourceGuardError

from helpers import (
    count_torus_solutions_brute,
    cyclic_table,
    det3_cofactor,
    det_fraction,
    rank_fraction,
    relabel_table,
    s3_table,
    sl2_table,
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
            m = regular_rep_matrix(f, q)
            total = sum(f.terms.values())
            assert m.row_sums() == [total] * q.size
            # entries[a][b] depends only on a * b^-1
            fhat = {}
            for s, c in f.terms.items():
                fhat[q.index(s)] = fhat.get(q.index(s), 0) + c
            for a in range(q.size):
                for b in range(q.size):
                    coset = q.mul(a, q.inv(b))
                    assert m.entries[a][b] == fhat.get(coset, 0)


def test_matrix_size_guard():
    f = parse_laurent("x - 2", 1)
    with pytest.raises(ResourceGuardError):
        regular_rep_matrix(f, torus_quotient([2000]), limit=10**6)


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
        assert abs(_det_bareiss([r[:] for r in rows])) == expected
        assert abs(_det_modular([r[:] for r in rows])) == expected
        assert det_abs_exact(rows) == expected


def test_det_modular_multi_panel():
    # crosses several 64-wide panels, compares against Bareiss
    rng = random.Random(23)
    n = 150
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    assert abs(_det_modular([r[:] for r in rows])) == abs(
        _det_bareiss([r[:] for r in rows])
    )


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
    return want


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
    # character, so every character is a candidate and only the exact test
    # separates the true zeros
    for n in (1, 5, 6, 12):
        p = _character_primes(n, 1)[0]
        sc = fix_count(GroupRingElement(1, {0: 2 * p, 1: -p}), torus_quotient([n]))
        assert sc.value == p**n * (2**n - 1)
        assert fix_count(GroupRingElement(1, {0: p, 1: -p}), torus_quotient([n])).nullity == 1
    p = _character_primes(6, 1)[0]
    f = GroupRingElement(2, {(0, 0): 4 * p, (1, 0): -p, (0, 1): -p, (-1, 0): -p, (0, -1): -p})
    assert _assert_matches_oracle(f, torus_quotient([2, 3])).nullity == 1


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


def test_torus_fix_count_rank_mismatch_and_guard():
    with pytest.raises(ValueError, match="mismatch"):
        fix_count(parse_laurent("5 - x - y", 2), torus_quotient([4]))
    with pytest.raises(ValueError, match="mismatch"):
        fix_count(parse_laurent("3 - x", 1), torus_quotient([2, 2]))
    with pytest.raises(ResourceGuardError):
        fix_count(parse_laurent("x - 2", 1), torus_quotient([2000]), limit=10**6)


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
    # need other pivots (and row swaps) there than modulo the other primes
    rng = random.Random(101)
    for q, gens in _explicit_quotients(rng):
        if q.size > 24:
            continue
        k = max(_order(q, x) for x in range(q.size))
        p = _character_primes(k, 1)[0]
        a, b = gens[0], gens[-1]
        for terms in (
            {(): 2 * p, ((a, 1),): -p, ((b, 1), (a, 1)): 1},
            {(): p, ((a, -1),): 3 * p, ((b, 2),): -1, ((a, 1), (b, 1)): 2},
        ):
            _assert_matches_oracle(GroupRingElement(0, terms), q)


def test_split_fix_count_agrees_with_fk_determinant_and_guard():
    table, a, b = sl2_table(5)
    q = ExplicitQuotient(table, {"a": a, "b": b})
    f = GroupRingElement(0, {parse_word(w): c for w, c in (("e", 5), ("a", -1), ("b^-1", -2))})
    sc = fix_count(f, q)
    assert fk_determinant_quotient(f, q) == pytest.approx(
        math.exp(log_big_int(sc.value) / q.size), rel=1e-15
    )
    with pytest.raises(ResourceGuardError):
        fix_count(f, q, limit=120 * 120 - 1)
    with pytest.raises(ValueError, match="mismatch"):
        fix_count(parse_laurent("3 - x", 1), q)


def _s3_one_minus_s():
    table, perms = s3_table()
    q = ExplicitQuotient(table, {"s": perms.index((1, 0, 2)), "r": perms.index((1, 2, 0))})
    return GroupRingElement(0, {(): 1, (("s", 1),): -1}), q


def test_singular_explicit_fix_count_skips_dense_determinant(monkeypatch):
    f, q = _s3_one_minus_s()
    calls = []
    snf = algebraic.smith_normal_form

    def counted_snf(matrix):
        calls.append(matrix)
        return snf(matrix)

    def no_det(matrix):
        raise AssertionError("dense determinant on a proven-singular quotient")

    monkeypatch.setattr(algebraic, "det_abs_exact", no_det)
    monkeypatch.setattr(algebraic, "smith_normal_form", counted_snf)
    sc = fix_count(f, q)
    assert (sc.value, sc.nullity) == (None, 3)
    assert len(calls) == 1


def test_fk_determinant_singular_explicit_skips_snf(monkeypatch):
    f, q = _s3_one_minus_s()

    def no_snf(matrix):
        raise AssertionError("Smith normal form computed only to be discarded")

    monkeypatch.setattr(algebraic, "smith_normal_form", no_snf)
    with pytest.raises(NotInvertibleError):
        fk_determinant_quotient(f, q)


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


def test_trace_serialization_stable():
    f = parse_laurent("x - 2", 1)
    quotients = [torus_quotient([n]) for n in (1, 2, 3)]
    trace = entropy_trace(f, quotients)
    csv_text = trace.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "label,d,log_fix_count,h_n"
    assert lines[1] == "Z/1,1,0.0,0.0"
    assert len(lines) == 4
    obj = json.loads(trace.to_json())
    assert obj["f_description"] == "-2 + x"
    assert [r["d"] for r in obj["records"]] == [1, 2, 3]
    assert obj["skipped"] == []
    # byte-identical on recompute
    again = entropy_trace(f, quotients)
    assert again.to_csv() == csv_text
    assert again.to_json() == trace.to_json()
