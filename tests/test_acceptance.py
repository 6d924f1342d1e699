"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single PASS line on success (visible with pytest -s or
in the captured summary); a failure reads as FAIL through the usual pytest
report for that criterion.
"""

import json
import math
import random

from sofic import (
    ExplicitQuotient,
    GroupRingElement,
    SoficMap,
    fix_count,
    freeness_defect,
    full_shift,
    golden_mean,
    hom_count_exact,
    mahler_jensen,
    mahler_quadrature,
    multiplicative_defect,
    parse_laurent,
    parse_word,
    sofic_map_from_quotient,
    torus_quotient,
)
from sofic.algebraic import log_big_int
from sofic.cli import main

from helpers import (
    count_cycles_brute,
    count_solutions,
    count_torus_solutions_brute,
    det_abs_exact,
    det_fraction,
    hom_count_full_shift,
    kesten_mckay_log_det,
    lucas_numbers,
    rank_fraction,
    regular_rep_matrix,
    sl2_table,
    smith_normal_form,
    table_count,
)


def _report(line):
    print(f"PASS  {line}")


def test_criterion_01_bernoulli_exactness():
    """f = k*1: every h_n equals log k within 1e-12."""
    for k in (2, 3, 5):
        log_k = math.log(k)
        for n in range(1, 65):
            sc = fix_count(parse_laurent(str(k), 1), torus_quotient([n]))
            h = log_big_int(sc.value) / n
            assert abs(h - log_k) <= 1e-12, (k, n, h)
        for n in range(1, 17):
            q = torus_quotient([n, n])
            sc = fix_count(parse_laurent(str(k), 2), q)
            h = log_big_int(sc.value) / q.size
            assert abs(h - log_k) <= 1e-12, (k, n, h)
    _report("criterion 1: Bernoulli exactness, h_n = log k for k in {2,3,5}")


def test_criterion_02_rank1_expanding_convergence():
    """f = x - 2: |Fix| = 2^n - 1 exactly; |h_30 - log 2| <= 1e-9."""
    f = parse_laurent("x - 2", 1)
    for n in range(1, 65):
        sc = fix_count(f, torus_quotient([n]))
        assert sc.value == 2**n - 1, n
    h30 = log_big_int(2**30 - 1) / 30
    assert abs(h30 - math.log(2)) <= 1e-9
    _report("criterion 2: x - 2 fixed points are 2^n - 1; h_30 -> log 2 within 1e-9")


def test_criterion_03_rank1_two_sided_convergence():
    """f = 3 - x - x^-1: h_60 matches the Jensen value within 1e-6."""
    reference = math.log((3 + math.sqrt(5)) / 2)  # roots of -z^2 + 3z - 1
    f = parse_laurent("3 - x - x^-1", 1)
    sc = fix_count(f, torus_quotient([60]))
    h60 = log_big_int(sc.value) / 60
    assert abs(h60 - reference) <= 1e-6
    assert abs(reference - 0.9624236501192069) < 1e-12
    jensen = mahler_jensen(f)
    quad = mahler_quadrature(f, 4096)
    assert abs(jensen.value - quad.value) <= 1e-9
    _report("criterion 3: 3 - x - x^-1 converges to 0.96242365... within 1e-6")


def test_criterion_04_rank2_convergence():
    """f = 5 - x - x^-1 - y - y^-1 over (Z/24)^2 vs quadrature within 5e-3."""
    f = parse_laurent("5 - x - x^-1 - y - y^-1", 2)
    coarse = mahler_quadrature(f, 256)
    fine = mahler_quadrature(f, 512)
    assert abs(coarse.value - fine.value) <= 1e-6
    q = torus_quotient([24, 24])
    sc = fix_count(f, q)
    h = log_big_int(sc.value) / q.size
    assert abs(h - fine.value) <= 5e-3
    _report("criterion 4: rank-2 trace at (Z/24)^2 matches the quadrature reference")


def test_criterion_05_structural_identity():
    """|det M| = product of SNF factors = solution count, exactly."""
    checked = 0
    for c_m1 in range(-2, 3):
        for c_0 in range(-2, 3):
            for c_1 in range(-2, 3):
                f = GroupRingElement(1, {-1: c_m1, 0: c_0, 1: c_1})
                if f.is_zero:
                    continue
                for n in range(1, 6):
                    m = regular_rep_matrix(f, torus_quotient([n]))
                    det = det_abs_exact(m)
                    if det == 0:
                        continue
                    factors = smith_normal_form(m)
                    assert math.prod(factors) == det
                    assert count_solutions(m).value == det
                    checked += 1
    rng = random.Random(97)
    for _ in range(10):
        f = GroupRingElement(
            2, {(a, b): rng.randint(-2, 2) for a in (-1, 0, 1) for b in (-1, 0, 1)}
        )
        if f.is_zero:
            continue
        for moduli in ([2, 2], [2, 3], [3, 3]):
            m = regular_rep_matrix(f, torus_quotient(moduli))
            det = det_abs_exact(m)
            if det == 0:
                continue
            factors = smith_normal_form(m)
            assert math.prod(factors) == det
            assert count_solutions(m).value == det
            checked += 1
    assert checked >= 300
    _report(f"criterion 5: big-integer identity det = SNF product = count ({checked} cases)")


def test_criterion_06_fixed_point_enumeration_oracle():
    """Solution counts agree with brute-force enumeration over the rational grid."""
    rng = random.Random(101)
    verified = {n: 0 for n in range(1, 6)}
    attempts = 0
    while min(verified.values()) < 5 and attempts < 4000:
        attempts += 1
        n = rng.randint(1, 5)
        f = GroupRingElement(1, {e: rng.randint(-2, 2) for e in (-1, 0, 1)})
        if f.is_zero:
            continue
        rows = regular_rep_matrix(f, torus_quotient([n])).tolist()
        det = abs(det_fraction(rows))
        sc = count_solutions(rows)
        if det == 0:
            assert not sc.is_finite
            assert sc.nullity == n - rank_fraction(rows)
            continue
        if det**n > 300_000:
            continue
        assert sc.value == count_torus_solutions_brute(rows), (f.terms, n)
        verified[n] += 1
    assert all(v >= 5 for v in verified.values()), verified
    _report(
        "criterion 6: enumeration oracle matches count_solutions "
        f"({sum(verified.values())} cases over Z/1..Z/5)"
    )


def test_criterion_07_full_shift_counts():
    """Full-shift homomorphism counts equal k^d on every tested path."""
    rng = random.Random(103)
    cases = [(2, 1), (2, 5), (2, 9), (2, 12), (3, 1), (3, 4), (3, 8), (3, 12)]
    for k, d in cases:
        shift = full_shift(k)
        q = torus_quotient([d])
        sigmas = [sofic_map_from_quotient(q, {0, 1})]
        perm = list(range(d))
        rng.shuffle(perm)
        sigmas.append(SoficMap(d=d, perms={0: list(range(d)), 1: perm}, rank=1))
        for sigma in sigmas:
            assert hom_count_full_shift(k, sigma) == k**d
            for budget in (0, 1, 5):
                count = hom_count_exact(shift, sigma, (0, 1), budget=budget)
                assert count == k**d, (k, d, budget)
    _report("criterion 7: full-shift counts are k^d for k <= 3, d <= 12")


def test_criterion_08_subshift_gap():
    """Golden-mean counts are Lucas numbers, below log 2, near log phi."""
    gm = golden_mean()
    lucas = lucas_numbers(30)
    for n in range(2, 31):
        assert table_count(gm, n, 0) == lucas[n], n
    for n in range(2, 21):
        assert count_cycles_brute(gm, n, 0) == lucas[n], n
    assert lucas[4] == 7 and lucas[5] == 11
    h30 = math.log(lucas[30]) / 30
    assert abs(h30 - 0.4812118) <= 1e-3
    log2 = math.log(2)
    for n in range(2, 31):
        assert math.log(lucas[n]) / n < log2, n
    _report("criterion 8: golden-mean gap, Lucas counts, h_30 within 1e-3 of log phi")


def test_criterion_09_soficity_defects():
    """Quotient-induced maps: zero defects, freeness 1 exactly on congruent pairs."""
    for n in range(3, 11):
        q = torus_quotient([n])
        elems = [1, 2, 3, n + 1, n + 2]
        needed = set(elems) | {s + t for s in elems for t in elems}
        sigma = sofic_map_from_quotient(q, needed)
        for s in elems:
            for t in elems:
                assert multiplicative_defect(sigma, s, t) == 0.0
                if s != t:
                    expected = 1.0 if (s - t) % n == 0 else 0.0
                    assert freeness_defect(sigma, s, t) == expected, (n, s, t)
    _report("criterion 9: quotient-induced soficity defects are exactly 0/1")


def test_criterion_10_cli_determinism(tmp_path):
    """Identical CLI configurations produce byte-identical reports."""
    sft_path = tmp_path / "gm.json"
    sft_path.write_text(
        json.dumps(golden_mean().to_json_obj()), encoding="utf-8"
    )
    configs = [
        ["algebraic", "--group", "Z", "--poly", "3 - x - x^-1",
         "--quotients", "1..16", "--format", "json"],
        ["algebraic", "--group", "Z", "--poly", "x - 2",
         "--quotients", "1..16", "--format", "csv"],
        ["subshift", "--sft", str(sft_path), "--quotients", "2..16",
         "--budget", "0,1", "--format", "json"],
        ["sofic-check", "--group", "Z", "--quotients", "3..8",
         "--elements", "1;2;5", "--format", "csv"],
        ["mahler", "--group", "Z", "--poly", "3 - x - x^-1", "--grid", "1024",
         "--format", "json"],
    ]
    for i, config in enumerate(configs):
        first = tmp_path / f"det{i}_a.out"
        second = tmp_path / f"det{i}_b.out"
        rc1 = main(config + ["--out", str(first)])
        rc2 = main(config + ["--out", str(second)])
        assert rc1 == rc2 == 0
        assert first.read_bytes() == second.read_bytes(), config
    _report("criterion 10: CLI reports are byte-identical across repeated runs")


def test_criterion_11_sl2_kesten_mckay():
    """F2 through SL(2, Z/p), p = 3, 5, 7: h_p approaches the Kesten-McKay
    value of log det_FK(5 - a - a^-1 - b - b^-1), and the cyclic-subgroup
    split of fix_count equals the dense determinant bit for bit."""
    reference = kesten_mckay_log_det(5.0)
    assert abs(reference - 1.5147873) < 1e-7
    f = GroupRingElement(
        0, {parse_word(w): -1 for w in ("a", "a^-1", "b", "b^-1")} | {(): 5}
    )
    gaps = []
    for p in (3, 5, 7):
        table, a, b = sl2_table(p)
        q = ExplicitQuotient(table, {"a": a, "b": b}, f"SL(2,{p})")
        value = fix_count(f, q).value
        assert value == det_abs_exact(regular_rep_matrix(f, q)), p
        gaps.append(abs(log_big_int(value) / q.size - reference))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3
    _report(f"criterion 11: SL(2,p) gaps {', '.join(f'{g:.1e}' for g in gaps)}, split == dense")
