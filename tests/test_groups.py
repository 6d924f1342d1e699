import random

import numpy as np
import pytest

from sofic import (
    ExplicitQuotient,
    GroupRingElement,
    ParseError,
    ResourceGuardError,
    SoficMap,
    freeness_defect,
    involution,
    left_translate,
    multiplicative_defect,
    parse_laurent,
    parse_word,
    sofic_map_from_quotient,
    torus_quotient,
)
from sofic.groups import word_inv, word_mul

from helpers import cyclic_table, relabel_table, s3_table


# ---------------------------------------------------------------------------
# parsing


def test_parse_rank1_basic():
    f = parse_laurent("3 - x - x^-1", 1)
    assert f.terms == {0: 3, 1: -1, -1: -1}


def test_parse_cancellation_gives_zero():
    f = parse_laurent("x - x", 1)
    assert f.terms == {}
    assert f.is_zero


def test_parse_rank2():
    f = parse_laurent("5 - x - x^-1 - y - y^-1", 2)
    assert f.terms == {(0, 0): 5, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1}


def test_parse_accepts_coefficient_star_and_juxtaposition():
    assert parse_laurent("2*x^2", 1).terms == {2: 2}
    assert parse_laurent("2x", 1).terms == {1: 2}
    assert parse_laurent("x*y^-1", 2).terms == {(1, -1): 1}
    assert parse_laurent("xy^-1", 2).terms == {(1, -1): 1}
    assert parse_laurent("x^2x^-1", 1).terms == {1: 1}
    assert parse_laurent("-x + 3", 1).terms == {0: 3, 1: -1}


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_laurent("3 + @", 1)
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_laurent("", 1)
    with pytest.raises(ParseError):
        parse_laurent("3 -", 1)
    with pytest.raises(ParseError):
        parse_laurent("x^", 1)


def test_parse_variable_out_of_rank():
    with pytest.raises(ParseError, match="out of rank"):
        parse_laurent("x + y", 1)
    with pytest.raises(ParseError, match="out of rank"):
        parse_laurent("z", 2)


def test_parse_coefficient_overflow():
    big = 2**63
    with pytest.raises(ParseError, match="64-bit"):
        parse_laurent(f"{big} + x", 1)
    # one below the bound is fine
    f = parse_laurent(f"{big - 1} + x", 1)
    assert f.terms[0] == big - 1


def test_parse_rank_validation():
    with pytest.raises(ValueError):
        parse_laurent("x", 0)
    with pytest.raises(ValueError):
        parse_laurent("x", 5)


def _random_element(rng, rank):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        if rank == 1:
            key = rng.randint(-4, 4)
        else:
            key = tuple(rng.randint(-3, 3) for _ in range(rank))
        terms[key] = rng.randint(-9, 9)
    return GroupRingElement(rank, terms)


def test_render_parse_roundtrip():
    rng = random.Random(42)
    for _ in range(200):
        rank = rng.choice([1, 2, 3, 4])
        f = _random_element(rng, rank)
        assert parse_laurent(f.render(), rank) == f or f.is_zero


def test_render_canonical_examples():
    assert parse_laurent("x - 2", 1).render() == "-2 + x"
    assert parse_laurent("5 - x - x^-1 - y - y^-1", 2).render() == "5 - x - x^-1 - y - y^-1"
    assert GroupRingElement(1, {}).render() == "0"


def test_parse_plus_negation_is_zero():
    rng = random.Random(7)
    for _ in range(50):
        f = _random_element(rng, 2)
        neg = GroupRingElement(2, {k: -v for k, v in f.terms.items()})
        total = GroupRingElement(2, {**f.terms})
        summed = dict(total.terms)
        for k, v in neg.terms.items():
            summed[k] = summed.get(k, 0) + v
        assert GroupRingElement(2, summed).is_zero


# ---------------------------------------------------------------------------
# involution


def test_involution_examples():
    assert involution(GroupRingElement(1, {0: 3, 1: -1})).terms == {0: 3, -1: -1}
    assert involution(GroupRingElement(1, {})).is_zero
    assert involution(GroupRingElement(2, {(1, 0): 2, (0, -1): 5})).terms == {
        (-1, 0): 2,
        (0, 1): 5,
    }


def test_involution_is_an_involution_and_preserves_norm():
    rng = random.Random(3)
    for _ in range(100):
        rank = rng.choice([1, 2, 3])
        f = _random_element(rng, rank)
        assert involution(involution(f)) == f
        assert involution(f).one_norm == f.one_norm


def test_involution_word_mode():
    f = GroupRingElement(0, {parse_word("a*b^-1"): 2, (): 3})
    g = involution(f)
    assert g.terms == {parse_word("b*a^-1"): 2, (): 3}
    assert involution(g) == f


def test_left_translate():
    f = parse_laurent("x - 2", 1)
    assert left_translate(f, 3).terms == {3: -2, 4: 1}
    g = parse_laurent("5 - x", 2)
    assert left_translate(g, (0, 2)).terms == {(0, 2): 5, (1, 2): -1}


# ---------------------------------------------------------------------------
# quotients


def test_torus_quotient_sizes():
    assert torus_quotient([5]).size == 5
    assert torus_quotient([1]).size == 1
    assert torus_quotient([3, 4]).size == 12


def test_torus_quotient_guard():
    with pytest.raises(ResourceGuardError):
        torus_quotient([10**7], limit=10**6)
    # explicit limit overrides the default
    q = torus_quotient([100], limit=10**6)
    assert q.size == 100


def test_torus_quotient_validation():
    with pytest.raises(ValueError):
        torus_quotient([0])
    with pytest.raises(ValueError):
        torus_quotient([])


def test_torus_coset_arithmetic():
    q = torus_quotient([3, 4])
    # lexicographic indexing: (k1, k2) -> 4*k1 + k2
    assert q.index((1, 2)) == 6
    assert q.index((-1, -1)) == q.index((2, 3))
    assert q.exponent(6) == (1, 2)


def test_sofic_map_from_quotient_examples():
    q = torus_quotient([4])
    cyc = sofic_map_from_quotient(q, {1})
    assert cyc.perm(1).tolist() == [1, 2, 3, 0]
    ident = sofic_map_from_quotient(q, {0})
    assert ident.perm(0).tolist() == [0, 1, 2, 3]
    wrapped = sofic_map_from_quotient(q, {5})
    assert wrapped.perm(5).tolist() == cyc.perm(1).tolist()


def test_sofic_map_rejects_non_bijection():
    with pytest.raises(ValueError, match="bijection"):
        SoficMap(d=3, perms={0: [0, 0, 1]}, rank=1)


def test_mode_mismatch():
    q = torus_quotient([4])
    f = parse_laurent("5 - x - y", 2)
    from sofic import regular_rep_matrix

    with pytest.raises(ValueError, match="mismatch"):
        regular_rep_matrix(f, q)


# ---------------------------------------------------------------------------
# defects


def test_multiplicative_defect_examples():
    q = torus_quotient([8])
    sigma = sofic_map_from_quotient(q, {1, 3, 4})
    assert multiplicative_defect(sigma, 1, 3) == 0.0

    ident = np.arange(4)
    sigma2 = SoficMap(d=4, perms={1: ident, 2: ident, 3: ident}, rank=1)
    assert multiplicative_defect(sigma2, 1, 2) == 0.0

    swap = np.array([1, 0])
    sigma3 = SoficMap(d=2, perms={1: [0, 1], 2: [0, 1], 3: swap}, rank=1)
    assert multiplicative_defect(sigma3, 1, 2) == 1.0


def test_multiplicative_defect_missing_permutation():
    sigma = SoficMap(d=2, perms={1: [0, 1], 2: [0, 1]}, rank=1)
    with pytest.raises(ValueError, match="no permutation"):
        multiplicative_defect(sigma, 1, 2)  # needs 3


def test_freeness_defect_examples():
    q = torus_quotient([4])
    sigma = sofic_map_from_quotient(q, {1, 2, 5})
    assert freeness_defect(sigma, 1, 2) == 0.0
    assert freeness_defect(sigma, 1, 5) == 1.0

    swap01 = np.array([1, 0, 2, 3])
    mixed = SoficMap(d=4, perms={1: np.arange(4), 2: swap01}, rank=1)
    assert freeness_defect(mixed, 1, 2) == 0.5


def test_freeness_defect_rejects_equal_elements():
    q = torus_quotient([4])
    sigma = sofic_map_from_quotient(q, {1})
    with pytest.raises(ValueError, match="distinct"):
        freeness_defect(sigma, 1, 1)


def test_quotient_induced_defect_invariants():
    # multiplicativity is exact, freeness is 0/1 by congruence
    for moduli in ([5], [8], [2, 3], [3, 3]):
        q = torus_quotient(moduli)
        rank = len(moduli)
        if rank == 1:
            elems = list(range(-3, 7))
        else:
            elems = [(a, b) for a in range(-1, 3) for b in range(-1, 3)]
        sigma = sofic_map_from_quotient(q, elems)
        for s in elems[:5]:
            for t in elems[:5]:
                st = s + t if rank == 1 else (s[0] + t[0], s[1] + t[1])
                if st in sigma.perms or rank == 1:
                    more = sofic_map_from_quotient(q, set(elems) | {st})
                    assert multiplicative_defect(more, s, t) == 0.0
                if s != t:
                    expected = 1.0 if q.index(s) == q.index(t) else 0.0
                    assert freeness_defect(sigma, s, t) == expected


# ---------------------------------------------------------------------------
# words and explicit quotients


def test_word_parse_and_arithmetic():
    w = parse_word("a*b^-1*a^2")
    assert w == (("a", 1), ("b", -1), ("a", 2))
    assert parse_word("e") == ()
    assert parse_word("1") == ()
    assert word_mul(parse_word("a"), parse_word("a^-1")) == ()
    assert word_mul(parse_word("a*b"), parse_word("b^-1")) == (("a", 1),)
    assert word_inv(parse_word("a*b")) == (("b", -1), ("a", -1))


def test_word_parse_errors():
    with pytest.raises(ParseError):
        parse_word("a**b")
    with pytest.raises(ParseError):
        parse_word("a^x")


def test_explicit_quotient_cyclic_matches_torus():
    q = ExplicitQuotient(cyclic_table(6), {"a": 1}, label="C6")
    assert q.size == 6
    assert q.identity_index == 0
    assert q.index(parse_word("a^4")) == 4
    assert q.index(parse_word("a^-1")) == 5
    assert q.index(parse_word("a^13")) == 1
    sigma = sofic_map_from_quotient(q, [parse_word("a"), parse_word("a^2"), parse_word("a^3")])
    assert multiplicative_defect(sigma, parse_word("a"), parse_word("a^2")) == 0.0
    assert freeness_defect(sigma, parse_word("a"), parse_word("a^2")) == 0.0


def test_explicit_quotient_s3():
    table, perms = s3_table()
    # generators: a transposition and a 3-cycle
    a = perms.index((1, 0, 2))
    b = perms.index((1, 2, 0))
    q = ExplicitQuotient(table, {"s": a, "r": b}, label="S3")
    assert q.size == 6
    # the quotient map is a homomorphism on words
    ws = parse_word("s*r")
    assert q.index(ws) == q.mul(a, b)
    assert q.index(parse_word("s^2")) == q.identity_index
    assert q.index(parse_word("r^3")) == q.identity_index
    sigma = sofic_map_from_quotient(q, [parse_word("s"), parse_word("r"), parse_word("s*r")])
    assert multiplicative_defect(sigma, parse_word("s"), parse_word("r")) == 0.0
    assert freeness_defect(sigma, parse_word("s"), parse_word("r")) == 0.0


def test_explicit_quotient_rejects_non_group():
    bad = [[0, 1], [1, 1]]  # not a Latin square
    with pytest.raises(ValueError):
        ExplicitQuotient(bad, {"a": 1})
    # Latin square without associativity: order-5 quasigroup
    quasi = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associative|identity|inverse"):
        ExplicitQuotient(quasi, {"a": 1})


def test_explicit_quotient_names_first_non_permutation():
    # identity 0 and two-sided inverses, but not Latin squares; rows and
    # columns are checked in the order row 1, column 1, row 2, ...
    with pytest.raises(ValueError, match="row 1 of"):
        ExplicitQuotient([[0, 1, 2], [1, 0, 1], [2, 1, 0]], {"a": 1})
    with pytest.raises(ValueError, match="column 1 of"):
        ExplicitQuotient([[0, 1, 2], [1, 0, 2], [2, 1, 0]], {"a": 1})


def _switched_cyclic(n):
    """Z/n, n even and >= 6, with one intercalate switched: rows 1 and 1 + n/2
    exchange their entries in columns 1 and 1 + n/2.  No 0 entry moves, so
    this is a Latin square with identity 0 and two-sided inverses: a loop."""
    table = cyclic_table(n)
    h = n // 2
    for r in (1, 1 + h):
        table[r][1], table[r][1 + h] = table[r][1 + h], table[r][1]
    return table


def _failing_middles(table):
    d = len(table)
    return {
        s
        for s in range(d)
        for x in range(d)
        for y in range(d)
        if table[table[x][s]][y] != table[x][table[s][y]]
    }


# An order-6 loop whose subloop {0, 1, 2} is the cyclic group of order 3:
# (x*s)*y == x*(s*y) for every x, y when s is 0, 1 or 2, and fails otherwise.
NUCLEAR_Z3_LOOP = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 4, 5, 3],
    [2, 0, 1, 5, 3, 4],
    [3, 4, 5, 0, 2, 1],
    [4, 5, 3, 2, 1, 0],
    [5, 3, 4, 1, 0, 2],
]


def test_explicit_quotient_rejects_non_associative_loops():
    rng = random.Random(29)
    for n in (6, 8, 10, 12):
        loop = _switched_cyclic(n)
        assert _failing_middles(loop)
        with pytest.raises(ValueError, match="associative"):
            ExplicitQuotient(loop, {"a": 1})
    assert _failing_middles(NUCLEAR_Z3_LOOP) == {3, 4, 5}
    # The only generator image, 1, passes every associativity test, and the
    # failure lies at elements it does not reach; the table check does not
    # depend on the images, so this is reported as non-associative.
    with pytest.raises(ValueError, match="associative"):
        ExplicitQuotient(NUCLEAR_Z3_LOOP, {"a": 1})
    for _ in range(5):
        perm = list(range(6))
        rng.shuffle(perm)
        with pytest.raises(ValueError, match="associative"):
            ExplicitQuotient(relabel_table(NUCLEAR_Z3_LOOP, perm), {"a": perm[1], "b": perm[3]})


def test_explicit_quotient_rejects_non_generating_images():
    with pytest.raises(ValueError, match="generate"):
        ExplicitQuotient(cyclic_table(6), {"a": 2})  # <2> has index 2 in Z/6
