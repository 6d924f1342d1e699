import itertools
import json
import math
import random
from functools import partial

import numpy as np
import pytest

from sofic import (
    ResourceGuardError,
    SubshiftSFT,
    fix_count,
    full_shift,
    golden_mean,
    hom_count_exact,
    parse_laurent,
    sofic_map_from_quotient,
    subshift_entropy_table,
    torus_quotient,
)
from sofic import algebraic, companion, subshift

from helpers import (
    allowed_pairs,
    bad_site_tally_brute,
    count_cycles_brute,
    dense_transfer_traces,
    hom_count_full_shift,
    lucas_numbers,
    table_count,
    transfer_dp_count,
    transition_matrix_power_trace,
    two_cap_route,
)


def _cyclic_sigma(n, elems=(0, 1)):
    return sofic_map_from_quotient(torus_quotient([n]), set(elems))


# ---------------------------------------------------------------------------
# SFT type


def test_sft_validation():
    with pytest.raises(ValueError):
        SubshiftSFT(alphabet=(), window=(0, 1), allowed=frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        SubshiftSFT(alphabet=(0, 1), window=(0, 1), allowed=frozenset())
    with pytest.raises(ValueError):
        SubshiftSFT(alphabet=(0, 1), window=(0, 1), allowed=frozenset({(0,)}))
    with pytest.raises(ValueError):
        SubshiftSFT(alphabet=(0, 1), window=(0, 1), allowed=frozenset({(0, 7)}))
    with pytest.raises(ValueError):
        SubshiftSFT(alphabet=(0, 1), window=(0, 0), allowed=frozenset({(0, 0)}))
    # a string is refused, not read as its characters
    with pytest.raises(ValueError, match="^alphabet must be a list, got '01'$"):
        SubshiftSFT(alphabet="01", window=(0, 1), allowed=frozenset({("0", "1")}))


@pytest.mark.parametrize("make, message", [
    (lambda: full_shift(0), "alphabet size must be >= 1"),
    (lambda: hom_count_exact(golden_mean(), _cyclic_sigma(3), (0, 1), budget=-1),
     "budget must be >= 0"),
    (lambda: hom_count_exact(golden_mean(), sofic_map_from_quotient(
        torus_quotient([2, 2]), {(0, 0), (1, 0)}), (0, 1)),
     "subshift counting requires a rank-1 sofic map"),
    (lambda: subshift_entropy_table(golden_mean(), []), "at least one cycle length required"),
    (lambda: subshift_entropy_table(golden_mean(), [3, 0]), "cycle lengths must be >= 1"),
    (lambda: subshift_entropy_table(golden_mean(), [3], [2, -1]), "budgets must be >= 0"),
    # every value is checked for integers before any range check
    (lambda: subshift_entropy_table(golden_mean(), [0], [-1, 0.5]),
     "cycle lengths and budgets must be integers, got 0.5"),
], ids=["full shift on 0", "negative budget", "rank-2 map", "no length", "length 0",
        "negative table budget", "integers first"])
def test_shift_and_count_refusal_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("make, want", [
    (lambda: torus_quotient([2.7]), "moduli must be integers, got [2.7]"),
    (lambda: torus_quotient(["3"]), "moduli must be integers, got ['3']"),
    (lambda: torus_quotient([True, 3]), "moduli must be integers, got [True, 3]"),
    (lambda: subshift_entropy_table(golden_mean(), [2.5]),
     "cycle lengths and budgets must be integers, got 2.5"),
    (lambda: subshift_entropy_table(golden_mean(), ["3"]),
     "cycle lengths and budgets must be integers, got '3'"),
    (lambda: subshift_entropy_table(golden_mean(), [3], [1.5]),
     "cycle lengths and budgets must be integers, got 1.5"),
    (lambda: subshift_entropy_table(golden_mean(), [3], [False]),
     "cycle lengths and budgets must be integers, got False"),
    (lambda: hom_count_exact(golden_mean(), _cyclic_sigma(3), (0, 1), budget=1.5),
     "budget must be an integer, got 1.5"),
    (lambda: torus_quotient([np.int64(3), np.int32(2)]).size, 6),
    (lambda: [r.count for r in subshift_entropy_table(golden_mean(), [np.int64(3)],
                                                      [np.int32(1)]).rows], [4, 7]),
    (lambda: hom_count_exact(golden_mean(), _cyclic_sigma(3), (0, 1), budget=np.int64(1)), 7),
], ids=["float modulus", "string modulus", "bool modulus", "float length", "string length",
        "float budget", "bool budget", "float hom_count budget", "numpy moduli",
        "numpy length and budget", "numpy hom_count budget"])
def test_moduli_lengths_and_budgets_take_integers_only(make, want):
    if isinstance(want, str):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == want
    else:
        assert make() == want


@pytest.mark.parametrize("k, want", [
    (2.5, "alphabet size must be an integer, got 2.5"),
    ("3", "alphabet size must be an integer, got '3'"),
    (True, "alphabet size must be an integer, got True"),
    (np.int64(3), (0, 1, 2)),
], ids=["float", "string", "bool", "numpy integer"])
def test_full_shift_takes_an_integer_size_only(k, want):
    if isinstance(want, str):
        with pytest.raises(ValueError) as info:
            full_shift(k)
        assert str(info.value) == want
    else:
        assert full_shift(k).alphabet == want


def test_sft_json_roundtrip():
    gm = golden_mean()
    text = json.dumps(gm.to_json_obj())
    again = SubshiftSFT.from_json(text)
    assert again == gm
    with pytest.raises(ValueError, match="missing"):
        SubshiftSFT.from_json('{"alphabet": [0, 1], "window": [0, 1]}')


# ---------------------------------------------------------------------------
# full-shift counts


def test_full_shift_counts_examples():
    assert hom_count_full_shift(2, _cyclic_sigma(5)) == 32
    assert hom_count_full_shift(1, _cyclic_sigma(10)) == 1
    assert hom_count_full_shift(3, _cyclic_sigma(4)) == 81


def test_full_shift_universality_every_path():
    rng = random.Random(71)
    for k in (1, 2, 3):
        shift = full_shift(k)
        for d in (1, 3, 6):
            perm = list(range(d))
            rng.shuffle(perm)
            sigmas = [
                _cyclic_sigma(d),
                sofic_map_from_quotient(torus_quotient([d]), {0, 1, 2}),
            ]
            from sofic import SoficMap

            sigmas.append(SoficMap(d=d, perms={0: list(range(d)), 1: perm}, rank=1))
            for sigma in sigmas:
                for budget in (0, 1, 4):
                    assert hom_count_exact(shift, sigma, (0, 1), budget=budget) == k**d
            assert hom_count_full_shift(k, sigmas[0]) == k**d
            assert table_count(shift, d, 0) == k**d


# ---------------------------------------------------------------------------
# transfer-matrix counts


def test_golden_mean_small_cycles():
    gm = golden_mean()
    # all 16 binary 4-cycles with no cyclically adjacent ones
    assert table_count(gm, 4, 0) == 7
    assert table_count(gm, 5, 0) == 11
    assert count_cycles_brute(gm, 4, 0) == 7
    assert count_cycles_brute(gm, 5, 0) == 11


def test_transfer_equals_trace_of_power():
    gm = golden_mean()
    for n in range(1, 31):
        assert table_count(gm, n, 0) == transition_matrix_power_trace(gm, n)


def test_transfer_matches_brute_force_battery():
    rng = random.Random(73)
    for _ in range(25):
        m = rng.choice([2, 3])
        symbols = tuple(range(m))
        pairs = {
            (a, b) for a in symbols for b in symbols if rng.random() < 0.6
        }
        if not pairs:
            continue
        sft = SubshiftSFT(alphabet=symbols, window=(0, 1), allowed=frozenset(pairs))
        for n in (1, 2, 3, 5, 7):
            for budget in (0, 1, 2):
                assert table_count(sft, n, budget) == count_cycles_brute(
                    sft, n, budget
                ), (pairs, n, budget)


def test_transfer_large_length_and_huge_budget(monkeypatch):
    lucas = lucas_numbers(10**4)
    assert table_count(golden_mean(), 10**4, 0) == lucas[10**4]

    degrees = []
    traces = subshift._transfer_traces

    def spy(sft, lengths, degree, steps):
        degrees.append(degree)
        assert degree <= max(lengths)  # before any polynomial is built
        return traces(sft, lengths, degree, steps)

    monkeypatch.setattr(subshift, "_transfer_traces", spy)
    table = subshift_entropy_table(golden_mean(), [3], [10**9])
    assert [(r.budget, r.count) for r in table.rows] == [(0, 4), (10**9, 8)]
    assert degrees == [0]


def test_transfer_count_refuses_a_costly_walk(monkeypatch):
    # 100 symbols at n = 1023: the D = 100 shift-and-add steps of 100^2
    # entries of 100 additions, each touching entries of 107 words
    # (100^1023 < 2^6797), 1.0 * 10^10, and the recurrence to 1023, over the
    # cap, as is enumerating 100^1023 labelings
    def no_walk(sft, lengths, degree, steps):
        raise AssertionError("the walk started before the guard refused")

    monkeypatch.setattr(subshift, "_transfer_traces", no_walk)
    wide = SubshiftSFT(
        alphabet=tuple(range(100)),
        window=(0, 1),
        allowed=frozenset((a, b) for a in range(100) for b in range(100) if a != b),
    )
    message = "estimated cost 10061243753 and enumeration's exceed the cap 1000000000$"
    with pytest.raises(ResourceGuardError, match=message):
        subshift_entropy_table(wide, [1023])


def test_table_full_budget_rows_keep_degree_low(monkeypatch):
    degrees = []
    traces = subshift._transfer_traces

    def spy(sft, lengths, degree, steps):
        degrees.append(degree)
        return traces(sft, lengths, degree, steps)

    monkeypatch.setattr(subshift, "_transfer_traces", spy)
    gm = golden_mean()
    lengths = list(range(1, 401))
    table = subshift_entropy_table(gm, lengths, [0, 400])
    assert degrees == [0]
    assert [(r.n, r.budget) for r in table.rows] == [(n, b) for n in lengths for b in (0, 400)]
    for row in table.rows:
        want = transfer_dp_count(gm, row.n, 0) if row.budget == 0 else 2**row.n
        assert row.count == want, row
        assert row.method == "transfer_matrix"


def _random_nn_sft(rng, m, dead_symbol=False):
    """Random nearest-neighbor SFT on m symbols; optionally symbol m-1 has no
    outgoing transition."""
    symbols = tuple(range(m))
    while True:
        pairs = {
            (a, b) for a in symbols for b in symbols
            if rng.random() < 0.55 and not (dead_symbol and a == m - 1)
        }
        if pairs:
            return SubshiftSFT(alphabet=symbols, window=(0, 1), allowed=frozenset(pairs))


def test_transfer_table_matches_dp_oracle_battery():
    rng = random.Random(83)
    lengths = [7, 1, 7, 40, 2]
    budgets = [3, 0, 1, max(lengths) + 2, 10**9]
    expected_keys = [(n, b) for n in lengths for b in sorted(budgets)]
    sfts = [full_shift(1)]
    for m in (2, 3, 4):
        sfts += [_random_nn_sft(rng, m), _random_nn_sft(rng, m, dead_symbol=True)]
    for sft in sfts:
        oracle = {}
        for n in set(lengths):
            for b in budgets:
                key = (n, min(b, n))
                if key not in oracle:
                    oracle[key] = transfer_dp_count(sft, n, b)
        table = subshift_entropy_table(sft, lengths, budgets)
        assert [(r.n, r.budget) for r in table.rows] == expected_keys
        m = len(sft.alphabet)
        for row in table.rows:
            want = oracle[(row.n, min(row.budget, row.n))]
            assert row.count == want, (sorted(sft.allowed), row)
            assert row.method == "transfer_matrix"
            if row.n <= 7:
                assert row.count == count_cycles_brute(sft, row.n, row.budget)
            if row.budget >= row.n:
                assert row.count == m**row.n
        for n in set(lengths):
            assert table_count(sft, n, n + 2) == m**n
            for b in (0, 1, 3):
                assert table_count(sft, n, b) == oracle[(n, min(b, n))]


# ---------------------------------------------------------------------------
# exhaustive counts


def test_hom_count_matches_transfer_on_cycles():
    gm = golden_mean()
    # second case is orientation-asymmetric: allowed pairs are not closed
    # under transposition, so this also checks the two counting conventions
    # agree (they are related by the label-reversal bijection)
    lopsided = SubshiftSFT(
        alphabet=(0, 1), window=(0, 1), allowed=frozenset({(0, 0), (0, 1), (1, 1)})
    )
    for sft in (gm, lopsided):
        for n in (2, 3, 4, 6, 8):
            for budget in (0, 1, 2):
                count = hom_count_exact(sft, _cyclic_sigma(n), (0, 1), budget=budget)
                assert count == table_count(sft, n, budget), (n, budget)


def test_hom_count_degenerate_single_pattern():
    sft = SubshiftSFT(alphabet=(0, 1), window=(0, 1), allowed=frozenset({(0, 0)}))
    assert hom_count_exact(sft, _cyclic_sigma(3), (0, 1), budget=0) == 1  # all zeros only


def test_hom_count_budget_monotone():
    rng = random.Random(79)
    gm = golden_mean()
    for n in (3, 5, 7):
        sigma = _cyclic_sigma(n)
        counts = [
            hom_count_exact(gm, sigma, (0, 1), budget=b) for b in range(0, n + 1)
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 2**n  # everything passes with a full budget


def test_hom_count_monotone_in_constraint_set():
    gm = golden_mean()
    for n in (4, 5, 6):
        sigma = sofic_map_from_quotient(torus_quotient([n]), {0, 1, 2})
        small = hom_count_exact(gm, sigma, (0, 1), budget=0)
        large = hom_count_exact(gm, sigma, (0, 1, 2), budget=0)
        assert large <= small


def test_hom_count_general_window():
    # forbid symbol pairs two apart: pattern on window (0, 2)
    sft = SubshiftSFT(
        alphabet=(0, 1), window=(0, 2), allowed=frozenset({(0, 0), (0, 1), (1, 0)})
    )
    n = 6
    sigma = sofic_map_from_quotient(torus_quotient([n]), {0, 2})
    got = hom_count_exact(sft, sigma, (0, 2), budget=0)
    # brute force: labelings where (l(k), l(k+2)) is allowed for all k
    count = 0
    for bits in range(2**n):
        l = [(bits >> i) & 1 for i in range(n)]
        if all((l[k], l[(k + 2) % n]) in sft.allowed for k in range(n)):
            count += 1
    assert got == count


def test_hom_count_matches_product_brute_force_battery():
    rng = random.Random(89)
    lopsided = SubshiftSFT(
        alphabet=(0, 1), window=(0, 1), allowed=frozenset({(0, 0), (0, 1), (1, 1)})
    )
    gapped = SubshiftSFT(
        alphabet=(0, 1), window=(0, 2), allowed=frozenset({(0, 0), (0, 1), (1, 0)})
    )
    symbols = ("a", "b", "c")
    three = SubshiftSFT(
        alphabet=symbols,
        window=(0, 1),
        allowed=frozenset((a, b) for a in symbols for b in symbols if rng.random() < 0.6),
    )
    cases = [
        # constraint sets holding two or three window translates
        (golden_mean(), (0, 1, 2), (3,)),
        (lopsided, (0, 1, 2), (1, 2, 4, 6)),
        (golden_mean(), (0, 1, 2, 3), (3, 5, 7)),
        (gapped, (0, 2, 4), (2, 5, 6)),
        # the non-contiguous window itself
        (gapped, (0, 2), (1, 3, 6, 8)),
        # 3^11 labelings exceed _CHUNK, so the low/high digit split runs
        (three, (0, 1), (4, 11)),
    ]
    assert 3**11 > subshift._CHUNK
    for sft, constraints, lengths in cases:
        for n in lengths:
            sigma = _cyclic_sigma(n, constraints)
            tally = bad_site_tally_brute(sft, sigma, constraints)
            assert sum(tally) == len(sft.alphabet) ** n
            for budget in (0, 1, 2, n + 1):
                count = hom_count_exact(sft, sigma, constraints, budget=budget)
                assert count == sum(tally[: budget + 1]), (constraints, n, budget)
    # on Z/3 with constraints {0, 1, 2} the all-ones golden-mean labeling
    # fails both translates at every site: 3 bad sites, not 6
    sigma = _cyclic_sigma(3, (0, 1, 2))
    assert hom_count_exact(golden_mean(), sigma, (0, 1, 2), budget=2) == 7
    assert hom_count_exact(golden_mean(), sigma, (0, 1, 2), budget=3) == 8


def test_hom_count_golden_mean_long_cycles():
    gm = golden_mean()
    for n in (17, 18):
        sigma = _cyclic_sigma(n)
        for budget in range(4):
            count = hom_count_exact(gm, sigma, (0, 1), budget=budget)
            assert count == table_count(gm, n, budget), (n, budget)


def test_entropy_table_general_window_matches_brute_force():
    patterns = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    window3 = SubshiftSFT(
        alphabet=(0, 1),
        window=(0, 1, 2),
        allowed=frozenset(p for p in patterns if p not in {(0, 0, 0), (1, 0, 1)}),
    )
    symbols = (0, 1, 2)
    two_sided = SubshiftSFT(
        alphabet=symbols,
        window=(-1, 1),
        allowed=frozenset((a, b) for a in symbols for b in symbols if a != b),
    )
    lengths = [5, 1, 5, 2, 7]
    budgets = [9, 0, 2, 1]
    for sft in (window3, two_sided):
        table = subshift_entropy_table(sft, lengths, budgets)
        assert [(r.n, r.budget) for r in table.rows] == [
            (n, b) for n in lengths for b in sorted(budgets)
        ]
        for row in table.rows:
            sigma = _cyclic_sigma(row.n, sft.window)
            tally = bad_site_tally_brute(sft, sigma, sft.window)
            assert row.count == sum(tally[: row.budget + 1]), row
            assert row.method == "transfer_matrix"


def test_block_step_of_nearest_neighbor_window_is_parent_matrix():
    # T + z(J - T), T read off the allowed pairs
    rng = random.Random(97)
    z = 1 << 20
    for symbols in ((0, 1), ("a", "b", "c"), (3, 1, 2, 0)):
        for window in ((0, 1), (1, 0)):
            pairs = {(a, b) for a in symbols for b in symbols if rng.random() < 0.5}
            pairs = pairs or {(symbols[0], symbols[-1])}
            allowed = {p if window == (0, 1) else p[::-1] for p in pairs}
            sft = SubshiftSFT(alphabet=symbols, window=window, allowed=frozenset(allowed))
            assert allowed_pairs(sft) == pairs
            parent = [[1 if (a, b) in pairs else z for b in symbols] for a in symbols]
            assert subshift._block_step(sft, z) == parent, (symbols, window)


def _random_sft(rng, m, window):
    symbols = tuple(range(m))
    patterns = list(itertools.product(symbols, repeat=len(window)))
    allowed = [p for p in patterns if rng.random() < 0.6] or [rng.choice(patterns)]
    return SubshiftSFT(alphabet=symbols, window=window, allowed=frozenset(allowed))


def test_transfer_walk_matches_brute_force_battery():
    rng = random.Random(101)
    windows = [
        (0,), (4,), (-3,),  # single offset
        (1, 0), (2, 1, 0),  # reversed
        (2, 0, 1), (1, 3, 0),  # unsorted
        (-1, 1), (-2, -1), (-1, 0, 2),  # negative
        (0, 2), (0, 3), (3, 0, 1),  # gapped
    ]
    sfts = [_random_sft(rng, m, w) for w in windows for m in (2, 3)]
    # l(k) = 0 and l(k + 2) = 1 everywhere is impossible: every budget-0 count is 0
    sfts.append(SubshiftSFT(alphabet=(0, 1), window=(0, 2), allowed=frozenset({(0, 1)})))
    routes = set()
    for sft in sfts:
        top = max(sft.window) - min(sft.window) + 3
        lengths = list(range(1, top + 1)) + rng.sample(range(1, top + 1), 3)
        rng.shuffle(lengths)
        budgets = [10**9, 2, top + 1, 0, 1]
        brute = {}
        for n in set(lengths):
            sigma = _cyclic_sigma(n, sft.window)
            brute[n] = bad_site_tally_brute(sft, sigma, sft.window)
        walk = subshift._transfer_traces(sft, lengths, top, max(lengths))
        assert walk == {n: tally[: top + 1] + [0] * (top - n) for n, tally in brute.items()}
        walks = subshift._walks(sft, lengths, 2)  # the table's degree: 2 < top
        table = subshift_entropy_table(sft, lengths, budgets)
        assert [(r.n, r.budget) for r in table.rows] == [
            (n, b) for n in lengths for b in sorted(budgets)
        ]
        for row in table.rows:
            assert row.count == sum(brute[row.n][: row.budget + 1]), (sft, row)
            assert row.method == ("transfer_matrix" if walks else "exact_enumeration")
        routes.add((set(sft.window) == {0, 1}, bool(walks)))
        if sft.allowed == {(0, 1)}:
            assert {r.count for r in table.rows if r.budget == 0} == {0}
    assert routes == {(True, True), (False, True), (False, False)}


def test_sparse_walk_matches_the_dense_walk_battery(monkeypatch):
    # every table runs both plans: S steps to the top length by
    # shift-and-add, R steps to min(D, top), D = (degree + 1) m^k, and
    # recurs past D by the companion walk on chi^(degree + 1); dense matrix
    # powers of the step matrix are the oracle
    rng = random.Random(113)
    length_sets = [
        range(1, 9),  # consecutive
        [2, 3, 6, 7, 8, 12],  # gapped
        [7],  # a single length
        [6, 2, 5, 2, 1, 6, 3],  # unsorted, with duplicates
        range(1, 41),  # consecutive, past D for all but the largest D
        [3, 17, 18, 33, 50],  # gapped, past D
        [45],  # a single length past D
        [200],  # a single long length
    ]
    windows = [(0, 1), (1, 0), (0, 1, 2), (0, 2), (-2, 0, 1)]
    sfts = [_random_sft(rng, m, w) for m in (1, 2, 3) for w in windows]
    # B_0 = [[1, 1], [0, 0]] is singular: chi = x (x - 1) keeps its root 0
    sfts.append(SubshiftSFT(alphabet=(0, 1), window=(0, 1), allowed=frozenset({(0, 0), (0, 1)})))
    cases = [(sft, lengths, degree)
             for sft in sfts for degree in range(4) for lengths in length_sets]
    # the window (0, 3, 6) has m^6 states: the binary one at degree 1 on
    # the short length sets, and the consecutive lengths at the other
    # degrees; degree 0 masks z to 0
    wide = _random_sft(rng, 2, (0, 3, 6))
    cases += [(wide, lengths, 1) for lengths in length_sets[:4]]
    cases += [(wide, length_sets[0], degree) for degree in (0, 2, 3)]
    # random windows of at most 9 states, lengths within and past D
    for _ in range(20):
        m = rng.choice((1, 2, 3))
        span = rng.randint(0, 2 if m == 3 else 3)
        window = rng.sample(range(-1, span), rng.randint(1, span + 1)) if span else [rng.randint(-2, 2)]
        degree = rng.randint(0, 3)
        top = (degree + 1) * m ** max(span, 1) + 12
        cases.append((_random_sft(rng, m, tuple(window)), rng.sample(range(1, top + 1), 6), degree))
    walked = []
    walk = companion.Companion.walk

    def walk_spy(self, sizes, bits):
        walked.append(list(sizes))
        return walk(self, sizes, bits)

    monkeypatch.setattr(companion.Companion, "walk", walk_spy)
    for sft, lengths, degree in cases:
        want = dense_transfer_traces(sft, lengths, degree)
        m, span = len(sft.alphabet), max(max(sft.window) - min(sft.window), 1)
        past = [n for n in sorted(set(lengths)) if n > (degree + 1) * m**span]
        # a dear set-up forces S, a dear step R, which recurs exactly the
        # lengths past D
        for price, recurred in (("_RECUR", []), ("_STEP", past)):
            with monkeypatch.context() as patch:
                patch.setattr(subshift, price, 10**9)
                steps = subshift._walk_cost(sft, lengths, degree)[1]
            walked.clear()
            got = subshift._transfer_traces(sft, lengths, degree, steps)
            assert got == want, (sft, lengths, degree, price)
            assert walked == ([recurred] if recurred else []), (sft, lengths, degree, price)


def test_entropy_table_route_choice(monkeypatch):
    patterns = list(itertools.product((0, 1), repeat=3))
    window3 = SubshiftSFT(alphabet=(0, 1), window=(0, 1, 2), allowed=frozenset(patterns[1:]))
    wide = SubshiftSFT(alphabet=(0, 1), window=(0, 6, 12), allowed=frozenset(patterns[1:]))
    walks, tallies = [], []
    traces, tally = subshift._transfer_traces, subshift._bad_site_tally
    cap = algebraic.COST_CAP

    def walk_spy(*args):
        walks.append(args[1])
        return traces(*args)

    def tally_spy(*args):
        tallies.append(args[1].d)
        return tally(*args)

    monkeypatch.setattr(subshift, "_transfer_traces", walk_spy)
    monkeypatch.setattr(subshift, "_bad_site_tally", tally_spy)
    # 4 states, D = 4: S, 8 shift-and-add steps of 4^2 entries of 2
    # additions, 19,784, below R's set-up, against enumeration's set-up and 2
    # labeling sites at n = 1, 50,003
    assert subshift._walk_cost(window3, range(1, 9), 0) == (19784, 8)
    assert subshift._enumeration_cost(2, 1) == 50003
    assert subshift._walks(window3, range(1, 9), 0) == 8
    assert subshift_entropy_table(window3, range(1, 9)).rows[0].method == "transfer_matrix"
    assert (len(walks), tallies) == (1, [])
    # a cap below the walk's price refuses the table before any work, as
    # enumeration's is dearer still
    monkeypatch.setattr(algebraic, "COST_CAP", 19783)
    with pytest.raises(ResourceGuardError, match=(
        "cost 19784 and enumeration's exceed the cap 19783$"
    )):
        subshift_entropy_table(window3, range(1, 9))
    assert (len(walks), tallies) == (1, [])
    # the 12 steps of [12, 5, 12], 29,707, are within a cap of 29,707, and
    # refused below it
    monkeypatch.setattr(algebraic, "COST_CAP", 29707)
    assert subshift._walks(window3, [12, 5, 12], 0) == 12
    monkeypatch.setattr(algebraic, "COST_CAP", 29706)
    with pytest.raises(ResourceGuardError, match=(
        "cost 29707 and enumeration's exceed the cap 29706$"
    )):
        subshift._walks(window3, [12, 5, 12], 0)
    monkeypatch.setattr(algebraic, "COST_CAP", cap)
    # R hands over at D = 4, and the lengths past it, each once and in
    # order, are the companion walk's: 5 from t_0 = 1, then the gap 55
    walked = []
    walk = companion.Companion.walk

    def walk_spy_sizes(self, sizes, bits):
        walked.append(list(sizes))
        return walk(self, sizes, bits)

    monkeypatch.setattr(companion.Companion, "walk", walk_spy_sizes)
    assert subshift._walk_cost(window3, [60, 5, 60], 0) == (102516, 4)
    subshift_entropy_table(window3, [60, 5, 60])
    assert walked == [[5, 60]]
    assert len(walks) == 2
    # 4096 states cost more than enumerating short lengths: 1.9 * 10^10
    # against 528,802
    assert subshift._walk_cost(wide, range(1, 11), 0)[0] == 18858078173
    assert sum(subshift._enumeration_cost(2, n) for n in range(1, 11)) == 528802
    assert not subshift._walks(wide, range(1, 11), 0)
    table = subshift_entropy_table(wide, range(1, 11))
    assert {r.method for r in table.rows} == {"exact_enumeration"}
    assert len(walks) == 2 and tallies == list(range(1, 11))
    # at n = 25 both prices exceed the cap, enumeration's 2^25 labelings
    # 1,310,770,000: refused before any work
    assert subshift._enumeration_cost(2, 25) == 1310770000
    with pytest.raises(ResourceGuardError, match=(
        "^the transfer walk's estimated cost 47375614191 and enumeration's "
        "exceed the cap 1000000000$"
    )):
        subshift_entropy_table(wide, [25])
    assert len(walks) == 2 and len(tallies) == 10
    # nearest-neighbor windows take the same rule: S, 30 steps of 2^2
    # entries, 33,872, below R's set-up and enumeration's 2^30 labelings,
    # within a cap of 33,872 and refused below it
    assert subshift._walk_cost(golden_mean(), [30], 0) == (33872, 30)
    monkeypatch.setattr(algebraic, "COST_CAP", 33872)
    assert subshift_entropy_table(golden_mean(), [30]).rows[0].count == 1860498
    assert len(walks) == 3
    monkeypatch.setattr(algebraic, "COST_CAP", 33871)
    with pytest.raises(ResourceGuardError, match=(
        "cost 33872 and enumeration's exceed the cap 33871$"
    )):
        subshift_entropy_table(golden_mean(), [30])
    assert len(walks) == 3


def test_nearest_neighbor_table_enumerates_where_enumeration_is_cheaper(monkeypatch):
    # Z/2 on 20 symbols: 2 steps of 20^2 entries of 20 additions, 323,201,
    # against enumeration's 20^2 * 2 labeling sites and its set-up, 51,250;
    # over Z/1 and Z/2, 101,281 against 323,201
    shift = full_shift(20)
    assert subshift._walk_cost(shift, [2], 0) == (323201, 2)
    assert subshift._enumeration_cost(20, 2) == 51250
    assert subshift._walk_cost(shift, [1, 2], 0) == (323201, 2)
    assert subshift._enumeration_cost(20, 1) + 51250 == 101281
    walks = []
    monkeypatch.setattr(subshift, "_transfer_traces", lambda *a: walks.append(a))
    table = subshift_entropy_table(shift, [2])
    assert [(r.count, r.method) for r in table.rows] == [(400, "exact_enumeration")]
    table = subshift_entropy_table(shift, [1, 2])
    assert [(r.count, r.method) for r in table.rows] == [
        (20, "exact_enumeration"), (400, "exact_enumeration")
    ]
    assert walks == []


def test_walk_estimate_counts_the_words_of_an_entry(monkeypatch):
    # an entry packs degree + 1 slots of bit_length(m^n) bits: the binary
    # window (0, 1, 2) at budgets 0..3 has D = 16 states of the truncated
    # step, and at n = 16 both plans are its 16 steps of 4^2 entries of 2
    # additions, 2,467 units, and 60 touched entries of 4 * 17 bits, 49.8
    window3 = SubshiftSFT(alphabet=(0, 1), window=(0, 1, 2),
                          allowed=frozenset(itertools.product((0, 1), repeat=3)))
    assert subshift._walk_cost(window3, [16], 3) == (40269, 16)
    assert subshift._walk_cost(window3, range(1, 17), 3) == (40269, 16)
    # the binary window (0, 3, 6) over Z/1..60 at degree 1 is all steps:
    # D = 128 > 60, 60 steps of 2^12 entries of 2 additions of 2 words;
    # at [2000] S's 2000 steps of 63 words pass the cap, and R, 128 steps
    # and the recurrence, is admitted
    w036 = SubshiftSFT((0, 1), (0, 3, 6), frozenset(itertools.product((0, 1), repeat=3)) - {(1, 1, 1)})
    assert subshift._walk_cost(w036, range(1, 61), 1) == (28669697, 60)
    assert subshift._walk_cost(w036, [2000], 1) == (165672473, 128)
    # past D, R adds its set-up, Newton, and per length a step of the
    # companion walk and its dots: the golden mean at budgets 0..3 (D = 8)
    # steps to 400, under R's set-up and 392 walk steps and dots, and
    # recurs over 1..4000; a single length is squared
    gm = golden_mean()
    assert subshift._walk_cost(gm, range(1, 401), 3) == (621505, 400)
    assert subshift._walk_cost(gm, range(1, 4001), 3) == (11917255, 8)
    assert subshift._walk_cost(gm, [10**4], 0) == (209102, 2)
    for lengths, degree in (([10**6], 0), ([10**5], 3), (range(1, 4001), 3), (range(1, 8001), 3)):
        assert subshift._walk_cost(gm, lengths, degree)[0] <= algebraic.COST_CAP
    # a length past int64 is priced, not overflowed, and so is enumerating
    # it, without raising 2^(2^70)
    assert subshift._walk_cost(gm, [3, 2**70, 3], 0)[0] > algebraic.COST_CAP
    with pytest.raises(ResourceGuardError, match="enumeration's exceed the cap 1000000000$"):
        subshift._walks(gm, [3, 2**70, 3], 0)

    def no_walk(sft, lengths, degree, steps):
        raise AssertionError("the walk started before the guard refused")

    monkeypatch.setattr(subshift, "_transfer_traces", no_walk)
    # R's step and dots for each of the 10^6 lengths pass the cap before
    # any gap is priced, and S's 10^6 steps more so
    with pytest.raises(ResourceGuardError, match=(
        "cost 47275607746 and enumeration's exceed the cap 1000000000$"
    )):
        subshift_entropy_table(gm, range(1, 10**6 + 1))


def test_entropy_table_checks_cap_before_enumerating(monkeypatch):
    patterns = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    # span 12: 4096 block states, so the enumeration route is the cheaper one
    wide = SubshiftSFT(
        alphabet=(0, 1), window=(0, 5, 12), allowed=frozenset(patterns[1:])
    )
    calls = []
    checks = subshift._pulled_back_checks

    def counting(*args):
        calls.append(args)
        return checks(*args)

    monkeypatch.setattr(subshift, "_pulled_back_checks", counting)
    # the walk, 1.5 * 10^10, against enumeration's set-up per length and its
    # labeling sites, 254,652, refused by a cap below that before any work
    lengths = [2, 1, 7, 3, 8]
    assert subshift._walk_cost(wide, lengths, 1)[0] == 15120871744
    assert sum(subshift._enumeration_cost(2, n) for n in set(lengths)) == 254652
    monkeypatch.setattr(algebraic, "COST_CAP", 254651)
    with pytest.raises(ResourceGuardError, match=(
        "cost 15120871744 and enumeration's exceed the cap 254651$"
    )):
        subshift_entropy_table(wide, lengths, [0, 1])
    assert calls == []
    monkeypatch.setattr(algebraic, "COST_CAP", 254652)
    assert not subshift._walks(wide, lengths, 1)
    table = subshift_entropy_table(wide, [2, 1, 6, 2], [0])
    assert len(calls) == 3  # each distinct length is enumerated once
    assert {row.method for row in table.rows} == {"exact_enumeration"}


def test_entropy_table_refuses_a_dear_nearest_neighbor_walk(monkeypatch):
    # 100 symbols over Z/1..50: 50 steps of 100^2 entries of 100 additions,
    # touching entries of 6 words (100^50 < 2^333), 1.05 * 10^9, over the
    # default cap, as is enumerating, refused before any work
    wide = _random_sft(random.Random(103), 100, (0, 1))
    walks, tallies = [], []
    traces = subshift._transfer_traces
    monkeypatch.setattr(subshift, "_transfer_traces", lambda *a: walks.append(a) or traces(*a))
    monkeypatch.setattr(subshift, "_bad_site_tally", lambda *a: tallies.append(a))
    with pytest.raises(ResourceGuardError, match=(
        "cost 1045334023 and enumeration's exceed the cap 1000000000$"
    )):
        subshift_entropy_table(wide, range(1, 51))
    assert walks == tallies == []
    # the cap is read when the table is priced: Z/4 takes 4 steps,
    # 68,534,378, below enumeration's 100^4 * 4 labeling sites
    monkeypatch.setattr(algebraic, "COST_CAP", 68534377)
    with pytest.raises(ResourceGuardError, match="cost 68534378 and enumeration's exceed"):
        subshift_entropy_table(wide, [4])
    monkeypatch.setattr(algebraic, "COST_CAP", 68534378)
    table = subshift_entropy_table(wide, [4])
    assert [r.count for r in table.rows] == [transition_matrix_power_trace(wide, 4)]
    assert len(walks) == 1 and tallies == []


def test_hom_count_cap(monkeypatch):
    gm = golden_mean()
    # 2^10 labelings of 10 sites and the set-up, 66,000: within the default
    # cap, refused by one below them
    assert subshift._enumeration_cost(2, 10) == 66000
    assert hom_count_exact(gm, _cyclic_sigma(10), (0, 1), budget=0) == 123
    monkeypatch.setattr(algebraic, "COST_CAP", 65999)
    with pytest.raises(ResourceGuardError, match=(
        "^enumeration's estimated cost 66000 exceeds the cap 65999$"
    )):
        hom_count_exact(gm, _cyclic_sigma(10), (0, 1), budget=0)


def test_one_cap_keeps_every_admitted_route_battery():
    # every table that the two caps of 10^7 admitted keeps its route and its
    # steps under COST_CAP, but a nearest-neighbor one whose enumeration now
    # prices lower (the full 20-shift at [2] and [1, 2]); every table they
    # refused is refused, or admitted within COST_CAP; pricing only
    windows = [(0,), (0, 1), (1, 0), (0, 2), (0, 4), (0, 1, 2), (-1, 0, 2), (0, 2, 4),
               (0, 2, 5), (0, 3, 6), (0, 5, 12), (0, 6, 12), (0, 12)]
    sfts = [SubshiftSFT(tuple(range(m)), w, frozenset([(0,) * len(w)]))
            for m in (2, 3) for w in windows]
    sfts += [full_shift(m) for m in (5, 10, 20)]
    length_sets = [range(1, 9), range(1, 19), range(1, 25), [12, 5, 12], [2], [1, 2], [30],
                   [60, 5, 60], range(1, 61), [100], range(1, 401), [2000]]
    cheaper, refused, admitted = [], 0, 0
    for sft, lengths, degree in itertools.product(sfts, length_sets, (0, 1, 3)):
        m, case = len(sft.alphabet), (sft.window, len(sft.alphabet), lengths, degree)
        before = two_cap_route(sft, lengths, degree)
        try:
            steps = subshift._walks(sft, lengths, degree)
        except ResourceGuardError:
            assert before is None, case
            refused += 1
            continue
        walk = subshift._walk_cost(sft, lengths, degree)[0]
        enumerated = sum(subshift._enumeration_cost(m, n) for n in set(lengths))
        assert (walk if steps else enumerated) <= algebraic.COST_CAP, case
        if before is None:
            admitted += 1
        elif steps != before:
            assert set(sft.window) == {0, 1} and not steps and enumerated < walk, case
            cheaper.append((m, list(lengths), degree))
    assert cheaper == [(20, n, d) for n in ([2], [1, 2]) for d in (0, 1, 3)]
    assert refused and admitted


def _route_case(route):
    """(the call, its price, and the owner and name of its kernel) of each
    route that COST_CAP guards."""
    if route == "torus split":
        f, q = parse_laurent("5 - x - x^-1 - y - y^-1", 2), torus_quotient([12, 12])
        split = algebraic._Split(q.split_plan(f))
        return partial(fix_count, f, q), max(split.work, split.supply), algebraic, "_split_det"
    if route == "companion walk":
        f, q = parse_laurent("x - 2", 1), torus_quotient([2000])
        price = math.ceil(companion.Companion([-2, 1]).cost(2000, 2000))
        return partial(fix_count, f, q), price, companion.Companion, "counts"
    if route == "subshift walk":
        # not nearest-neighbor, at a length whose m^n n labeling sites
        # are far past float range
        sft = SubshiftSFT((0, 1), (0, 2), frozenset({(0, 0), (0, 1), (1, 0)}))
        price = subshift._walk_cost(sft, [2000], 0)[0]
        return partial(subshift_entropy_table, sft, [2000]), price, subshift, "_transfer_traces"
    patterns = list(itertools.product((0, 1), repeat=3))
    wide = SubshiftSFT((0, 1), (0, 6, 12), frozenset(patterns[1:]))
    if route == "table enumeration":
        price = sum(subshift._enumeration_cost(2, n) for n in range(1, 11))
        call = partial(subshift_entropy_table, wide, range(1, 11))
        return call, price, subshift, "_bad_site_tally"
    call = partial(hom_count_exact, wide, _cyclic_sigma(10, wide.window), wide.window)
    return call, subshift._enumeration_cost(2, 10), subshift, "_bad_site_tally"


@pytest.mark.parametrize("route", [
    "torus split", "companion walk", "subshift walk", "table enumeration", "hom_count_exact",
])
def test_one_cap_guards_every_route(route, monkeypatch):
    # one monkeypatch of algebraic.COST_CAP governs every priced route: one
    # below the route's price refuses it before its kernel runs, the price
    # itself admits it
    call, price, owner, kernel = _route_case(route)
    ran = []
    run = getattr(owner, kernel)
    monkeypatch.setattr(owner, kernel, lambda *a: ran.append(a) or run(*a))
    monkeypatch.setattr(algebraic, "COST_CAP", price - 1)
    with pytest.raises(ResourceGuardError, match=f"exceed.? the cap {price - 1}"):
        call()
    assert ran == []
    monkeypatch.setattr(algebraic, "COST_CAP", price)
    call()
    assert ran


# ---------------------------------------------------------------------------
# entropy tables


def test_entropy_table_golden_mean():
    gm = golden_mean()
    lucas = lucas_numbers(30)
    table = subshift_entropy_table(gm, [10, 20, 30], [0])
    for row in table.rows:
        assert row.count == lucas[row.n]
        assert row.h_n == pytest.approx(math.log(lucas[row.n]) / row.n, rel=1e-12)
        assert row.h_n < math.log(2)
    golden = math.log((1 + math.sqrt(5)) / 2)
    last = table.rows[-1]
    assert abs(last.h_n - golden) < 1e-3


def test_entropy_table_full_shift_logk():
    table = subshift_entropy_table(full_shift(2), [4, 8, 12], [0, 2])
    for row in table.rows:
        assert row.h_n == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_table_inserts_zero_budget():
    table = subshift_entropy_table(golden_mean(), [4], [2])
    budgets = [row.budget for row in table.rows]
    assert budgets == [0, 2]


def _table_report(sft, tmp_path, capsys, quotients, fmt):
    from sofic.cli import main

    path = tmp_path / "sft.json"
    path.write_text(json.dumps(sft.to_json_obj()), encoding="utf-8")
    assert main(["subshift", "--sft", str(path), "--quotients", quotients,
                 "--budget", "0", "--format", fmt]) == 0
    return capsys.readouterr().out


def test_entropy_table_zero_count_row(tmp_path, capsys):
    # alternating shift has no odd cycles
    sft = SubshiftSFT(alphabet=(0, 1), window=(0, 1), allowed=frozenset({(0, 1), (1, 0)}))
    table = subshift_entropy_table(sft, [3, 4], [0])
    by_n = {row.n: row for row in table.rows}
    assert by_n[3].count == 0
    assert by_n[3].h_n == float("-inf")
    assert by_n[4].count == 2
    obj = json.loads(_table_report(sft, tmp_path, capsys, "3..4", "json"))
    h_values = {r["n"]: r["h_n"] for r in obj["rows"]}
    assert h_values[3] is None


def test_entropy_table_general_window_method():
    sft = SubshiftSFT(
        alphabet=(0, 1), window=(0, 2), allowed=frozenset({(0, 0), (0, 1), (1, 0)})
    )
    table = subshift_entropy_table(sft, [4, 6], [0])
    assert all(row.method == "transfer_matrix" for row in table.rows)
    # span 12: 4096 block states cost more than enumerating short lengths
    wide = SubshiftSFT(
        alphabet=(0, 1), window=(0, 12), allowed=frozenset({(0, 0), (0, 1), (1, 0)})
    )
    table = subshift_entropy_table(wide, [4, 6], [0])
    assert all(row.method == "exact_enumeration" for row in table.rows)


def test_entropy_table_serialization(tmp_path, capsys):
    csv_text = _table_report(golden_mean(), tmp_path, capsys, "4..5", "csv")
    lines = csv_text.strip().split("\n")
    assert lines[0] == "n,budget,count,h_n,method"
    assert lines[1].startswith("4,0,7,")
    assert lines[2].startswith("5,0,11,")
    obj = json.loads(_table_report(golden_mean(), tmp_path, capsys, "4..5", "json"))
    assert obj["rows"][0]["count"] == 7
    assert obj["sft"]["alphabet"] == [0, 1]


def test_entropy_table_validation():
    with pytest.raises(ValueError):
        subshift_entropy_table(golden_mean(), [], [0])
    with pytest.raises(ValueError):
        subshift_entropy_table(golden_mean(), [0], [0])
    with pytest.raises(ValueError):
        subshift_entropy_table(golden_mean(), [3], [-1])
