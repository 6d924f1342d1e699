"""Seeded workload inputs, their expected outputs, and the output checks.

Each workload is a short list of ``sofic`` CLI invocations.  The seed picks
the inputs from a family whose cost does not depend on it: the support
shape and coefficient sizes stay fixed and only a signed axis map (see
``_variant``), a relabelling of group elements or the roles of symbols
vary.  Seed 0 gives the default inputs.  The singular workload keeps its
inputs for every seed: each such map tried there moved its cost.

Expected values come from ``reference`` and never from sofic.  The exact
integer samples call ``sofic.fix_count`` (the report carries only logs)
and compare it with an exact value computed here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import reference

WORKLOADS = ("torus_trace", "singular_nullity", "sl2_chain", "subshift_table")

SIZES = {
    "full": {
        "torus_rank1": 104, "torus_rank2": 12,
        "singular_rank2": 12, "singular_rank1": 102,
        "sl2_primes": (3, 5, 7),
        "golden_lengths": 400, "golden_budgets": (0, 1, 2, 3),
        "window3_lengths": 18, "window3_budgets": (0, 1),
    },
    "tiny": {
        "torus_rank1": 12, "torus_rank2": 4,
        "singular_rank2": 4, "singular_rank1": 9,
        "sl2_primes": (3, 5),
        "golden_lengths": 30, "golden_budgets": (0, 1, 2, 3),
        "window3_lengths": 8, "window3_budgets": (0, 1),
    },
}

LOG_EXACT_TOL = 1e-12  # log of an exact closed-form integer
LOG_FLOAT_TOL = 1e-9  # character sums and floating-point LU
GAP_LIMIT = 1e-3  # |h - Kesten-McKay| required at SL(2, Z/p), p >= 7
SL2_7_ORDER = 336

Terms = reference.Terms


@dataclass
class Invocation:
    """One CLI call and what its report must contain.

    For ``algebraic`` reports ``expected`` maps a quotient label to
    ("log", d, log|Fix|, rel_tol) or ("nullity", d, nullity); for
    ``subshift`` reports it maps (n, budget) to the exact count.  One
    expected entry is one op.
    """

    argv: List[str]
    exit_code: int
    expected: dict
    gap_check: bool = False

    @property
    def ops(self) -> int:
        return len(self.expected)

    def failures(self, exit_code, report: str) -> int:
        if exit_code != self.exit_code:
            return self.ops
        try:
            if self.argv[0] == "subshift":
                return self._table_failures(report)
            return self._trace_failures(report)
        except (ValueError, KeyError, TypeError):
            return self.ops

    def _trace_failures(self, report: str) -> int:
        obj = json.loads(report)
        rows = {r["label"]: ("log", r) for r in obj["records"]}
        rows.update({s["label"]: ("nullity", s) for s in obj["skipped"]})
        extra = len(obj["records"]) + len(obj["skipped"]) - len(self.expected)
        bad = set()
        for label, want in self.expected.items():
            kind, row = rows.get(label, (None, None))
            if kind != want[0] or row["d"] != want[1]:
                bad.add(label)
            elif kind == "log":
                _, d, value, tol = want
                if not (
                    math.isclose(row["log_fix_count"], value, rel_tol=tol, abs_tol=tol)
                    and math.isclose(row["h_n"], row["log_fix_count"] / d, rel_tol=1e-12)
                ):
                    bad.add(label)
            elif row["nullity"] != want[2]:
                bad.add(label)
        if self.gap_check:
            bad |= _gap_failures(obj["records"])
        return len(bad) + max(extra, 0)

    def _table_failures(self, report: str) -> int:
        rows = list(csv.DictReader(io.StringIO(report)))
        extra = len(rows) - len(self.expected)
        bad = set(self.expected)
        for row in rows:
            n, budget, count = int(row["n"]), int(row["budget"]), int(row["count"])
            h = float(row["h_n"])
            want_h = math.log(count) / n if count > 0 else -math.inf
            if self.expected.get((n, budget)) == count and (
                h == want_h or math.isclose(h, want_h, rel_tol=1e-12)
            ):
                bad.discard((n, budget))
        return len(bad) + max(extra, 0)


def _gap_failures(records: list) -> set:
    """Labels whose gap to the Kesten-McKay value fails to shrink, and the
    last label if its gap is not below GAP_LIMIT at p >= 7."""
    bad = set()
    gaps = [(r["label"], r["d"], abs(r["h_n"] - reference.KESTEN_MCKAY_LOG_DET)) for r in records]
    for (_, _, before), (label, _, after) in zip(gaps, gaps[1:]):
        if after >= before:
            bad.add(label)
    if gaps and gaps[-1][1] >= SL2_7_ORDER and gaps[-1][2] >= GAP_LIMIT:
        bad.add(gaps[-1][0])
    return bad


@dataclass
class Sample:
    """An exact |Fix| or nullity that sofic.fix_count must reproduce."""

    label: str
    run: Callable  # sofic module -> SolutionCount
    value: Optional[int]
    nullity: int

    def ok(self, sofic) -> bool:
        got = self.run(sofic)
        return got.value == self.value and (self.value is not None or got.nullity == self.nullity)


@dataclass
class Workload:
    name: str
    invocations: List[Invocation] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)


# ---------------------------------------------------------------------------
# polynomials


def render(terms: Terms) -> str:
    """Laurent text in x, y, z, w that sofic.parse_laurent accepts."""
    parts = []
    for exp, c in sorted(terms.items(), key=lambda kv: (sum(map(abs, kv[0])), kv[0])):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip("xyzw", exp) if e)
        mag = abs(c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _variant(rng: random.Random, seed: int, terms: Terms) -> Terms:
    """f composed with a seeded signed axis map x_i -> s_i * x_pi(i)^(+-1).

    Seed 0 gives f itself.  These maps preserve the Mahler measure, the
    coefficient sizes and the support shape, and map a polynomial without
    zeros on the torus to one without zeros.  They can move zeros on the
    torus and change the Smith normal form's pivot order, so the singular
    workload does not use them.
    """
    if seed == 0:
        return dict(terms)
    rank = len(next(iter(terms)))
    perm = rng.sample(range(rank), rank)
    power = [rng.choice((-1, 1)) for _ in range(rank)]
    sign = [rng.choice((-1, 1)) for _ in range(rank)]
    out = {}
    for exp, c in terms.items():
        image = [0] * rank
        for i, e in enumerate(exp):
            image[perm[i]] = power[i] * e
            c *= sign[i] ** (e % 2)
        out[tuple(image)] = c
    return out


TORUS_RANK1 = {(0,): 3, (1,): -1, (-1,): -1, (2,): 1, (-3,): -1}
TORUS_RANK2 = {(0, 0): 5, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1}
SINGULAR_RANK2 = {(0, 0): 4, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1}
SINGULAR_RANK1 = {(0,): 1, (1,): 1, (2,): 1}


def _algebraic_argv(group: str, terms: Terms, top: int, start: int) -> List[str]:
    return ["algebraic", "--group", group, "--poly", render(terms),
            "--quotients", f"{start}..{top}", "--format", "json"]


def _rank1(terms: Terms, top: int, exit_code: int, rng: random.Random, sample_max: int):
    exact = reference.rank1_fix_counts(terms, range(1, top + 1))
    expected = {
        f"Z/{n}": ("log", n, math.log(v), LOG_EXACT_TOL) if v else ("nullity", n, k)
        for n, (v, k) in exact.items()
    }
    n = rng.randint(1, min(top, sample_max))
    text = render(terms)
    sample = Sample(
        f"Z/{n}",
        lambda s: s.fix_count(s.parse_laurent(text, 1), s.torus_quotient([n])),
        *exact[n],
    )
    return Invocation(_algebraic_argv("Z", terms, top, 1), exit_code, expected), sample


def _rank2(terms: Terms, top: int, exit_code: int, rng: random.Random, sample_max: int):
    expected = {}
    for n in range(2, top + 1):
        value, zeros = reference.torus_log_fix(terms, (n, n))
        label = f"Z/{n}xZ/{n}"
        expected[label] = ("log", n * n, value, LOG_FLOAT_TOL) if zeros == 0 else (
            "nullity", n * n, zeros)
    n = rng.randint(2, min(top, sample_max))
    _, zeros = reference.torus_log_fix(terms, (n, n))
    value = None if zeros else abs(reference.det_exact(reference.torus_matrix(terms, (n, n))))
    text = render(terms)
    sample = Sample(
        f"Z/{n}xZ/{n}",
        lambda s: s.fix_count(s.parse_laurent(text, 2), s.torus_quotient([n, n])),
        value,
        zeros,
    )
    return Invocation(_algebraic_argv("Z2", terms, top, 2), exit_code, expected), sample


# ---------------------------------------------------------------------------
# workloads


def torus_trace(seed: int, rng: random.Random, size: dict, workdir: str) -> Workload:
    wl = Workload("torus_trace")
    for build, base, top, sample_max in (
        (_rank1, TORUS_RANK1, size["torus_rank1"], 64),
        (_rank2, TORUS_RANK2, size["torus_rank2"], 8),
    ):
        inv, sample = build(_variant(rng, seed, base), top, 0, rng, sample_max)
        wl.invocations.append(inv)
        wl.samples.append(sample)
    return wl


def singular_nullity(seed: int, rng: random.Random, size: dict, workdir: str) -> Workload:
    """Fixed inputs; the seed picks only the exact samples."""
    wl = Workload("singular_nullity")
    # Every (Z/n)^2 quotient is singular, so no record is written: exit 3.
    inv, sample = _rank2(SINGULAR_RANK2, size["singular_rank2"], 3, rng, 6)
    wl.invocations.append(inv)
    wl.samples.append(sample)
    inv, sample = _rank1(SINGULAR_RANK1, size["singular_rank1"], 0, rng, 60)
    wl.invocations.append(inv)
    wl.samples.append(sample)
    return wl


def sl2_chain(seed: int, rng: random.Random, size: dict, workdir: str) -> Workload:
    """F2 through SL(2, Z/p) with Sanov's generators, each group relabelled
    by a seeded permutation (seed 0: natural order)."""
    wl = Workload("sl2_chain")
    poly = {"e": 5, "a": -1, "a^-1": -1, "b": -1, "b^-1": -1}
    quotients, expected, groups = [], {}, []
    for p in size["sl2_primes"]:
        table, a, b = reference.sl2_group(p)
        d = len(table)
        perm = list(range(d))
        if seed != 0:
            rng.shuffle(perm)
        relabelled = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                relabelled[perm[i]][perm[j]] = perm[table[i][j]]
        a, b = perm[a], perm[b]
        identity = next(i for i in range(d) if relabelled[i][i] == i)
        inverse = {g: relabelled[g].index(identity) for g in (a, b)}
        fhat: Dict[int, int] = {identity: 5}
        for g in (a, inverse[a], b, inverse[b]):
            fhat[g] = fhat.get(g, 0) - 1
        label = f"SL(2,{p})"
        matrix = reference.group_matrix(relabelled, fhat)
        expected[label] = ("log", d, reference.log_abs_det_float(matrix), LOG_FLOAT_TOL)
        quotients.append({"label": label, "table": relabelled, "images": {"a": a, "b": b}})
        groups.append((label, relabelled, {"a": a, "b": b}, matrix))
    path = os.path.join(workdir, "sl2_chain.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": "F2 via SL(2,Z/p)", "poly": poly, "quotients": quotients}, fh)
    wl.invocations.append(
        Invocation(["algebraic", "--group", f"file:{path}", "--format", "json"], 0, expected,
                   gap_check=True)
    )
    label, table, images, matrix = groups[rng.randrange(min(2, len(groups)))]

    def run(s):
        f = s.GroupRingElement(0, {s.parse_word(w): c for w, c in poly.items()})
        return s.fix_count(f, s.ExplicitQuotient(table, images, label))

    wl.samples.append(Sample(label, run, abs(reference.det_exact(matrix.tolist())), 0))
    return wl


def subshift_table(seed: int, rng: random.Random, size: dict, workdir: str) -> Workload:
    """The golden mean shift with seeded symbol roles (transfer-matrix DP),
    then a window-{0,1,2} binary SFT with two seeded forbidden patterns
    (exhaustive enumeration; its cost does not depend on which)."""
    wl = Workload("subshift_table")
    low, high = (0, 1) if seed == 0 else tuple(rng.sample((0, 1), 2))
    golden = {"alphabet": [0, 1], "window": [0, 1],
              "allowed": [[low, low], [low, high], [high, low]]}
    patterns = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    forbidden = [(0, 0, 0), (1, 1, 1)] if seed == 0 else rng.sample(patterns, 2)
    window3 = {"alphabet": [0, 1], "window": [0, 1, 2],
               "allowed": [list(p) for p in patterns if p not in forbidden]}
    for name, sft, top, budgets in (
        ("golden_mean", golden, size["golden_lengths"], size["golden_budgets"]),
        ("window3", window3, size["window3_lengths"], size["window3_budgets"]),
    ):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sft, fh)
        counts = reference.subshift_counts(
            sft["alphabet"], sft["window"], [tuple(p) for p in sft["allowed"]],
            range(1, top + 1), budgets,
        )
        argv = ["subshift", "--sft", path, "--quotients", f"1..{top}",
                "--budget", ",".join(map(str, budgets))]
        wl.invocations.append(Invocation(argv, 0, counts))
    return wl


BUILDERS = {
    "torus_trace": torus_trace,
    "singular_nullity": singular_nullity,
    "sl2_chain": sl2_chain,
    "subshift_table": subshift_table,
}


def build(name: str, seed: int, workdir: str, scale: str = "full") -> Workload:
    """Write the workload's input files into ``workdir`` and return it."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](seed, rng, SIZES[scale], workdir)
