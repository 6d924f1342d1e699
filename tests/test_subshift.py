import json
import math
import random

import pytest

from sofic import (
    EnumerationCapError,
    HomCountReport,
    SubshiftSFT,
    full_shift,
    golden_mean,
    hom_count_exact,
    hom_count_full_shift,
    sofic_map_from_quotient,
    subshift_entropy_table,
    torus_quotient,
    transfer_matrix_count,
)
from sofic import subshift
from sofic.subshift import budget_from_delta

from helpers import (
    bad_site_tally_brute,
    count_cycles_brute,
    lucas_numbers,
    transfer_dp_count,
    transition_matrix_power_trace,
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
    assert hom_count_full_shift(2, _cyclic_sigma(5)).count == 32
    assert hom_count_full_shift(1, _cyclic_sigma(10)).count == 1
    assert hom_count_full_shift(3, _cyclic_sigma(4)).count == 81


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
                    report = hom_count_exact(shift, sigma, (0, 1), budget=budget)
                    assert report.count == k**d
            assert hom_count_full_shift(k, sigmas[0]).count == k**d
            assert transfer_matrix_count(shift, d, 0) == k**d


# ---------------------------------------------------------------------------
# transfer-matrix counts


def test_golden_mean_small_cycles():
    gm = golden_mean()
    # all 16 binary 4-cycles with no cyclically adjacent ones
    assert transfer_matrix_count(gm, 4, 0) == 7
    assert transfer_matrix_count(gm, 5, 0) == 11
    assert count_cycles_brute(gm, 4, 0) == 7
    assert count_cycles_brute(gm, 5, 0) == 11


def test_transfer_equals_trace_of_power():
    gm = golden_mean()
    for n in range(1, 31):
        assert transfer_matrix_count(gm, n, 0) == transition_matrix_power_trace(gm, n)


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
                assert transfer_matrix_count(sft, n, budget) == count_cycles_brute(
                    sft, n, budget
                ), (pairs, n, budget)


def test_transfer_rejects_general_window():
    sft = SubshiftSFT(alphabet=(0, 1), window=(0, 2), allowed=frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="window"):
        transfer_matrix_count(sft, 4, 0)


def test_transfer_validation():
    gm = golden_mean()
    with pytest.raises(ValueError):
        transfer_matrix_count(gm, 0, 0)
    with pytest.raises(ValueError):
        transfer_matrix_count(gm, 4, -1)


def test_transfer_large_length_and_huge_budget(monkeypatch):
    lucas = lucas_numbers(10**4)
    assert transfer_matrix_count(golden_mean(), 10**4, 0) == lucas[10**4]

    degrees = []
    traces = subshift._transfer_traces

    def spy(sft, lengths, degree):
        degrees.append(degree)
        assert degree <= max(lengths)  # before any polynomial is built
        return traces(sft, lengths, degree)

    monkeypatch.setattr(subshift, "_transfer_traces", spy)
    table = subshift_entropy_table(golden_mean(), [3], [10**9])
    assert [(r.budget, r.count) for r in table.rows] == [(0, 4), (10**9, 8)]
    assert transfer_matrix_count(golden_mean(), 3, 10**9) == 8
    assert degrees == [0]


def test_transfer_full_budget_builds_no_polynomial(monkeypatch):
    def no_traces(sft, lengths, degree):
        raise AssertionError("polynomial transfer powers for a budget >= n")

    monkeypatch.setattr(subshift, "_transfer_traces", no_traces)
    assert transfer_matrix_count(golden_mean(), 2000, 2000) == 2**2000
    assert transfer_matrix_count(full_shift(3), 7, 10**9) == 3**7
    window3 = SubshiftSFT(alphabet=(0, 1), window=(0, 1, 2), allowed=frozenset({(0, 0, 0)}))
    with pytest.raises(ValueError):
        transfer_matrix_count(window3, 2, 5)


def test_table_full_budget_rows_keep_degree_low(monkeypatch):
    degrees = []
    traces = subshift._transfer_traces

    def spy(sft, lengths, degree):
        degrees.append(degree)
        return traces(sft, lengths, degree)

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
            assert transfer_matrix_count(sft, n, n + 2) == m**n
            for b in (0, 1, 3):
                assert transfer_matrix_count(sft, n, b) == oracle[(n, min(b, n))]


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
                report = hom_count_exact(sft, _cyclic_sigma(n), (0, 1), budget=budget)
                assert report.count == transfer_matrix_count(sft, n, budget), (n, budget)
                assert report.method == "exact_enumeration"
                assert report.d == n


def test_hom_count_degenerate_single_pattern():
    sft = SubshiftSFT(alphabet=(0, 1), window=(0, 1), allowed=frozenset({(0, 0)}))
    report = hom_count_exact(sft, _cyclic_sigma(3), (0, 1), budget=0)
    assert report.count == 1  # only the all-zero labeling


def test_hom_count_budget_monotone():
    rng = random.Random(79)
    gm = golden_mean()
    for n in (3, 5, 7):
        sigma = _cyclic_sigma(n)
        counts = [
            hom_count_exact(gm, sigma, (0, 1), budget=b).count for b in range(0, n + 1)
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 2**n  # everything passes with a full budget


def test_hom_count_monotone_in_constraint_set():
    gm = golden_mean()
    for n in (4, 5, 6):
        sigma = sofic_map_from_quotient(torus_quotient([n]), {0, 1, 2})
        small = hom_count_exact(gm, sigma, (0, 1), budget=0).count
        large = hom_count_exact(gm, sigma, (0, 1, 2), budget=0).count
        assert large <= small


def test_hom_count_general_window():
    # forbid symbol pairs two apart: pattern on window (0, 2)
    sft = SubshiftSFT(
        alphabet=(0, 1), window=(0, 2), allowed=frozenset({(0, 0), (0, 1), (1, 0)})
    )
    n = 6
    sigma = sofic_map_from_quotient(torus_quotient([n]), {0, 2})
    report = hom_count_exact(sft, sigma, (0, 2), budget=0)
    # brute force: labelings where (l(k), l(k+2)) is allowed for all k
    count = 0
    for bits in range(2**n):
        l = [(bits >> i) & 1 for i in range(n)]
        if all((l[k], l[(k + 2) % n]) in sft.allowed for k in range(n)):
            count += 1
    assert report.count == count


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
                report = hom_count_exact(sft, sigma, constraints, budget=budget)
                assert report.count == sum(tally[: budget + 1]), (constraints, n, budget)
    # on Z/3 with constraints {0, 1, 2} the all-ones golden-mean labeling
    # fails both translates at every site: 3 bad sites, not 6
    sigma = _cyclic_sigma(3, (0, 1, 2))
    assert hom_count_exact(golden_mean(), sigma, (0, 1, 2), budget=2).count == 7
    assert hom_count_exact(golden_mean(), sigma, (0, 1, 2), budget=3).count == 8


def test_hom_count_golden_mean_long_cycles():
    gm = golden_mean()
    for n in (17, 18):
        sigma = _cyclic_sigma(n)
        for budget in range(4):
            report = hom_count_exact(gm, sigma, (0, 1), budget=budget)
            assert report.count == transfer_matrix_count(gm, n, budget), (n, budget)


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
            assert row.method == "exact_enumeration"


def test_entropy_table_checks_cap_before_enumerating(monkeypatch):
    patterns = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    window3 = SubshiftSFT(
        alphabet=(0, 1), window=(0, 1, 2), allowed=frozenset(patterns[1:])
    )
    calls = []
    checks = subshift._pulled_back_checks

    def counting(*args):
        calls.append(args)
        return checks(*args)

    monkeypatch.setattr(subshift, "_pulled_back_checks", counting)
    with pytest.raises(EnumerationCapError, match="^128 labelings exceed the enumeration cap 64;"):
        subshift_entropy_table(window3, [2, 1, 7, 3, 8], [0, 1], cap=64)
    assert calls == []
    subshift_entropy_table(window3, [2, 1, 6, 2], [0], cap=64)
    assert len(calls) == 3  # each distinct length is enumerated once


def test_hom_count_cap():
    gm = golden_mean()
    with pytest.raises(EnumerationCapError):
        hom_count_exact(gm, _cyclic_sigma(10), (0, 1), budget=0, cap=100)


def test_report_budget_delta_consistency():
    report = hom_count_exact(golden_mean(), _cyclic_sigma(5), (0, 1), budget=2)
    assert report.budget == 2
    assert budget_from_delta(report.delta, report.d) == 2
    with pytest.raises(ValueError, match="inconsistent"):
        HomCountReport(
            quotient_label="x", d=5, delta=0.0, budget=3, count=1, method="exact_enumeration"
        )


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


def test_entropy_table_zero_count_row():
    # alternating shift has no odd cycles
    sft = SubshiftSFT(alphabet=(0, 1), window=(0, 1), allowed=frozenset({(0, 1), (1, 0)}))
    table = subshift_entropy_table(sft, [3, 4], [0])
    by_n = {row.n: row for row in table.rows}
    assert by_n[3].count == 0
    assert by_n[3].h_n == float("-inf")
    assert by_n[4].count == 2
    obj = table.to_json_obj()
    h_values = {r["n"]: r["h_n"] for r in obj["rows"]}
    assert h_values[3] is None


def test_entropy_table_general_window_method():
    sft = SubshiftSFT(
        alphabet=(0, 1), window=(0, 2), allowed=frozenset({(0, 0), (0, 1), (1, 0)})
    )
    table = subshift_entropy_table(sft, [4, 6], [0])
    assert all(row.method == "exact_enumeration" for row in table.rows)


def test_entropy_table_serialization():
    table = subshift_entropy_table(golden_mean(), [4, 5], [0])
    csv_text = table.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "n,budget,count,h_n,method"
    assert lines[1].startswith("4,0,7,")
    assert lines[2].startswith("5,0,11,")
    obj = json.loads(table.to_json())
    assert obj["rows"][0]["count"] == 7
    assert obj["sft"]["alphabet"] == [0, 1]


def test_entropy_table_validation():
    with pytest.raises(ValueError):
        subshift_entropy_table(golden_mean(), [], [0])
    with pytest.raises(ValueError):
        subshift_entropy_table(golden_mean(), [0], [0])
    with pytest.raises(ValueError):
        subshift_entropy_table(golden_mean(), [3], [-1])
