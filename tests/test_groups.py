import enum
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
from sofic import groups
from sofic.groups import word_inv, word_mul

from helpers import cyclic_table, group_table_oracle, relabel_table, s3_table, sl2_table


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


@pytest.mark.parametrize("text, message, position", [
    ("x 3", "expected '+' or '-', got '3'", 2),
    # after a coefficient, and after a factor
    ("3*5", "expected variable after '*'", 1),
    ("x*3", "expected variable after '*'", 1),
], ids=["term without a sign", "coefficient star", "factor star"])
def test_parse_error_names_the_token_and_its_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_laurent(text, 1)
    assert str(info.value).startswith(message)
    assert info.value.position == position


def test_parse_ignores_trailing_blanks():
    assert parse_laurent("3 - x ", 1) == parse_laurent("3 - x", 1)
    assert parse_word("a*b ") == (("a", 1), ("b", 1))


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


class _Exponent(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize("rank, terms, rendered", [
    (1, {0: 2.7, 1: True}, None),
    (1, {0: 2, 1: True}, None),
    (1, {1.5: 1}, None),
    (1, {True: 1}, None),
    (1, {(1.9,): 1}, None),
    (2, {(1.9, 0): 1}, None),
    (2, {(True, 0): 1}, None),
    (2, {(0, 1): np.float64(1)}, None),
    (0, {(("a", 1.5),): 1}, None),
    (0, {(("a", 1),): False}, None),
    (1, {np.int64(2): np.int64(3), (1,): 2**70}, "1180591620717411303424*x + 3*x^2"),
    (2, {(np.int32(1), 2**64): -1}, "-x*y^18446744073709551616"),
    (0, {(("a", np.int8(2)),): 1}, "a^2"),
    (1, {np.bool_(True): 1}, None),
    # an int subclass passes by the ABC check, after the plain int's fast path
    (1, {_Exponent.TWO: 1, 0: 1}, "1 + x^2"),
], ids=["float coefficient", "bool coefficient", "float exponent", "bool exponent",
        "float in a 1-tuple", "float in a tuple", "bool in a tuple", "numpy float coefficient",
        "float in a word", "bool coefficient in word mode", "big and numpy ints",
        "exponent beyond 2^63", "numpy int in a word", "numpy bool exponent", "IntEnum exponent"])
def test_group_ring_element_takes_integers_only(rank, terms, rendered):
    if rendered is None:
        with pytest.raises(ValueError, match="must be an integer|integer exponents"):
            GroupRingElement(rank, terms)
    else:
        assert GroupRingElement(rank, terms).render() == rendered


@pytest.mark.parametrize("make, message", [
    (lambda: GroupRingElement(-1, {}), "rank must be >= 0"),
    (lambda: GroupRingElement(2, {1.5: 1}), "rank-2 element must be a 2-tuple, got 1.5"),
    (lambda: GroupRingElement(2, {None: 1}), "rank-2 element must be a 2-tuple, got None"),
    (lambda: groups.normalize_element(2.5, 3), "rank-3 element must be a 3-tuple, got 2.5"),
    (lambda: groups.normalize_element(3, 2), "rank-2 element must be a 2-tuple, got 3"),
    (lambda: groups.normalize_element("a", 0), "word-mode element must be a word tuple, got 'a'"),
    (lambda: groups.normalize_element((1, 2, 3), 2), "element (1, 2, 3) has length 3, expected 2"),
], ids=["negative rank", "float at rank 2", "None at rank 2", "float at rank 3", "int at rank 2",
        "string in word mode", "tuple of the wrong length"])
def test_elements_of_the_wrong_shape_are_refused(make, message):
    # rank 2 and up refuse a non-iterable as ranks 0 and 1 do, with ValueError
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_group_ring_element_is_immutable_hashable_and_renders():
    f = parse_laurent("3 - x - x^-1", 1)
    with pytest.raises(AttributeError, match="immutable"):
        f.rank = 2
    with pytest.raises(AttributeError, match="immutable"):
        f.terms = {}
    g = GroupRingElement(1, {1: -1, -1: -1, 0: 3})
    assert hash(f) == hash(g) and len({f, g}) == 1
    # the canonical term order, whatever order the terms were given in
    assert str(f) == str(g) == f.render() == "3 - x - x^-1"
    assert repr(f) == repr(g) == "GroupRingElement(rank=1, terms={0: 3, 1: -1, -1: -1})"


def test_render_word_names_the_identity_e():
    assert groups.render_word(()) == "e"
    assert groups.render_word(parse_word("a*b^-1")) == "a*b^-1"


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


def test_torus_quotient_guard(monkeypatch):
    with pytest.raises(ResourceGuardError, match="coset cap 1000000$"):
        torus_quotient([10**7])
    assert torus_quotient([1000, 1000]).size == 10**6
    # the module constant is the one consulted
    monkeypatch.setattr(groups, "COSET_CAP", 99)
    with pytest.raises(ResourceGuardError, match="quotient size 100 exceeds"):
        torus_quotient([100])
    assert torus_quotient([99]).size == 99


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


@pytest.mark.parametrize("moduli", [(7,), (3, 4), (2, 3, 2), (2, 2, 3, 2)])
def test_torus_translation_adds_exponents(moduli):
    # the rolled index grid against componentwise addition of exponents
    q = torus_quotient(moduli)

    def vec(k):
        e = q.exponent(k)
        return (e,) if q.rank == 1 else e

    for c in range(q.size):
        perm = q.coset_translation_perm(c)
        for k in range(q.size):
            total = tuple(a + b for a, b in zip(vec(c), vec(k)))
            assert perm[k] == q.index(total[0] if q.rank == 1 else total), (c, k)


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


def test_sofic_map_rejects_a_permutation_of_the_wrong_length():
    with pytest.raises(ValueError, match="permutation for 0 has wrong length"):
        SoficMap(d=3, perms={0: [0, 1]}, rank=1)


def test_mode_mismatch():
    q = torus_quotient([4])
    f = parse_laurent("5 - x - y", 2)
    from helpers import regular_rep_matrix

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
    assert repr(q) == "ExplicitQuotient(label='C6', size=6)"


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


@pytest.mark.parametrize("table, images, message", [
    ([[0, 1]], {"a": 1}, "multiplication table must be square"),
    (np.zeros((0, 0), dtype=np.int64), {}, "empty multiplication table"),
    ([[0, 2], [2, 0]], {"a": 1}, "table entries must be coset indices in 0..size-1"),
    ([[0, -1], [-1, 0]], {"a": 1}, "table entries must be coset indices in 0..size-1"),
    (cyclic_table(3), {"a": 3}, "image of generator 'a' out of range"),
    # x o y = x - y mod 5: a Latin square whose only idempotent, 0, is a
    # right identity alone
    ([[(x - y) % 5 for y in range(5)] for x in range(5)], {"a": 1},
     "multiplication table has no identity element"),
], ids=["not square", "empty", "entry too large", "negative entry", "image out of range",
        "subtraction mod 5"])
def test_explicit_quotient_refusals(table, images, message):
    with pytest.raises(ValueError) as info:
        ExplicitQuotient(table, images)
    assert str(info.value) == message


def test_explicit_quotient_refuses_an_unknown_generator():
    q = ExplicitQuotient(cyclic_table(3), {"a": 1}, label="C3")
    with pytest.raises(ValueError) as info:
        q.index(parse_word("a*b"))
    assert str(info.value) == "unknown generator 'b' for quotient C3"


@pytest.mark.parametrize("table, images, message", [
    ([[0, 1], [1, 1]], {"a": 1}, "element 1 has no inverse"),
    ([[(x - y) % 5 for y in range(5)] for x in range(5)], {"a": 1},
     "multiplication table has no identity element"),
    # the order-5 quasigroup of test_explicit_quotient_rejects_non_group
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
     {"a": 1}, "multiplication table is not associative"),
    (cyclic_table(6), {"a": 2},
     "generator images do not generate the quotient (3 of 6 cosets reached)"),
], ids=["no inverse", "no identity", "not associative", "not generating"])
def test_explicit_quotient_names_first_failing_axiom(table, images, message):
    # identity, then inverses, then Light's test on the images, then generation
    with pytest.raises(ValueError) as info:
        ExplicitQuotient(table, images)
    assert str(info.value) == message


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
    # The only generator image, 1, passes Light's test and generates {0, 1, 2}
    with pytest.raises(ValueError) as info:
        ExplicitQuotient(NUCLEAR_Z3_LOOP, {"a": 1})
    assert str(info.value) == (
        "generator images do not generate the quotient (3 of 6 cosets reached)"
    )
    for _ in range(5):
        perm = list(range(6))
        rng.shuffle(perm)
        with pytest.raises(ValueError, match="associative"):
            ExplicitQuotient(relabel_table(NUCLEAR_Z3_LOOP, perm), {"a": perm[1], "b": perm[3]})


def test_explicit_quotient_rejects_non_generating_images():
    with pytest.raises(ValueError, match="generate"):
        ExplicitQuotient(cyclic_table(6), {"a": 2})  # <2> has index 2 in Z/6


def _closure_table(e, gens, mul):
    """The multiplication table of the group that ``gens`` generate under
    ``mul``, its elements numbered in breadth-first order from e."""
    elems, index = [e], {e: 0}
    for x in elems:
        for g in gens:
            y = mul(x, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    return [[index[mul(x, y)] for y in elems] for x in elems]


def _perm_group(*gens):
    n = len(gens[0])
    return _closure_table(tuple(range(n)), gens, lambda p, q: tuple(p[i] for i in q))


def _cyclic_product(m, n):
    return _closure_table(
        (0, 0), [(1, 0), (0, 1)], lambda a, b: ((a[0] + b[0]) % m, (a[1] + b[1]) % n)
    )


def _sl2_mod3(a, b):
    return (
        (a[0] * b[0] + a[1] * b[2]) % 3,
        (a[0] * b[1] + a[1] * b[3]) % 3,
        (a[2] * b[0] + a[3] * b[2]) % 3,
        (a[2] * b[1] + a[3] * b[3]) % 3,
    )


# groups of order at most 12: cyclic, products of two cyclic groups, S3,
# the dihedral groups of orders 8, 10 and 12, A4, (Z/2)^3 and Q8
SMALL_GROUPS = (
    [cyclic_table(n) for n in range(1, 13)]
    + [_cyclic_product(m, n) for m, n in ((2, 2), (2, 4), (2, 6), (3, 3))]
    + [
        _perm_group((1, 0, 2), (1, 2, 0)),  # S3
        _perm_group((1, 2, 3, 0), (2, 1, 0, 3)),  # D4
        _perm_group((1, 2, 3, 4, 0), (0, 4, 3, 2, 1)),  # D5
        _perm_group((1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)),  # D6
        _perm_group((1, 2, 0, 3), (0, 2, 3, 1)),  # A4
        _perm_group((1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)),  # (Z/2)^3
        _closure_table((1, 0, 0, 1), [(0, 2, 1, 0), (1, 1, 1, 2)], _sl2_mod3),  # Q8
    ]
)


def _images(rng, d):
    """Every element, or one to three at random."""
    elems = range(d) if rng.random() < 0.3 else rng.sample(range(d), rng.randint(1, min(3, d)))
    return {f"g{i}": x for i, x in enumerate(elems)}


def _table_battery(rng):
    """(table, images): relabelled groups and one-entry corruptions of them,
    x - y and the affine tables a x + b y + c mod n, random tables with an
    identity and right inverses, and left-zero bands with an identity
    adjoined."""
    for _ in range(150):
        group = rng.choice(SMALL_GROUPS)
        d = len(group)
        table = relabel_table(group, rng.sample(range(d), d))
        yield table, _images(rng, d)
        if d > 1:
            x, y = rng.randrange(d), rng.randrange(d)
            table = [row[:] for row in table]
            table[x][y] = (table[x][y] + rng.randrange(1, d)) % d
            yield table, _images(rng, d)
    for n in range(2, 13):
        yield [[(x - y) % n for y in range(n)] for x in range(n)], _images(rng, n)
    for _ in range(40):
        n = rng.randint(2, 12)
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        yield [[(a * x + b * y + c) % n for y in range(n)] for x in range(n)], _images(rng, n)
    for _ in range(300):
        d = rng.randint(2, 7)
        table = [[rng.randrange(d) for _ in range(d)] for _ in range(d)]
        for x in range(d):
            table[0][x] = table[x][0] = x  # the identity 0
        for x in range(1, d):
            table[x][rng.randrange(1, d)] = 0  # a right inverse
        yield relabel_table(table, rng.sample(range(d), d)), _images(rng, d)
    for d in range(2, 13):
        band = [list(range(d))] + [[x] * d for x in range(1, d)]
        yield relabel_table(band, rng.sample(range(d), d)), _images(rng, d)


def test_explicit_quotient_agrees_with_the_group_oracle():
    assert [len(g) for g in SMALL_GROUPS[12:]] == [4, 8, 12, 9, 6, 8, 10, 12, 12, 8, 8]
    battery = list(_table_battery(random.Random(21)))
    assert len(battery) >= 500
    accepted = 0
    for table, images in battery:
        expected = group_table_oracle(table, images)
        try:
            q = ExplicitQuotient(table, images)
        except ValueError:
            assert expected is None, (table, images)
            continue
        assert expected is not None, (table, images)
        assert q.identity_index == expected[0]
        assert [q.inv(a) for a in range(q.size)] == expected[1]
        accepted += 1
    assert 100 <= accepted <= len(battery) - 100


def test_light_test_runs_at_most_log2_d_plus_one_times(monkeypatch):
    # each image that passes and grows the closure at least doubles it
    calls = []
    take = np.take

    def spy(*args, **kwargs):
        calls.append(None)
        return take(*args, **kwargs)

    monkeypatch.setattr(groups.np, "take", spy)
    sl2, _, _ = sl2_table(5)
    for table, images in (
        (cyclic_table(64), {f"g{k}": k for k in range(1, 64)}),
        (relabel_table(sl2, random.Random(5).sample(range(120), 120)),
         {f"g{k}": k for k in range(120)}),
    ):
        calls.clear()
        ExplicitQuotient(table, images)
        assert 1 <= len(calls) <= len(table).bit_length()
