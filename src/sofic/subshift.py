"""Homomorphism-counting entropy for one-dimensional subshifts of finite type.

A subshift is given by an alphabet A, a finite window W of integer offsets,
and the set of allowed patterns W -> A.  Over a sofic approximation sigma
on d sites, a labeling l: {0..d-1} -> A is tested sitewise: site k is good
when every window pattern pulled back through sigma,

    s  |->  l(sigma_s^-1(k)),

is allowed.  Counting labelings with at most ``budget`` bad sites realizes
the homomorphism counts that define the entropy; budget 0 counts genuine
equivariant homomorphisms.  On the cyclic quotient Z/n with a
nearest-neighbor window every zero-budget labeling closes up into a real
periodic point of the subshift, so that count is exact and equals the
trace of the n-th power of the transition matrix.

Budgeted counts with budget > 0 are the standard microstate relaxation;
they are reported under the same schema but labeled by their budget and
never conflated with the zero-budget value.

Every count is read off a tally of labelings by their number of bad sites,
so all budgets of one length cost one computation.  For nearest-neighbor
windows the tally is trace((T + z(J - T))^n) truncated at the largest
budget, J the all-ones matrix; a table walks its sorted lengths once
through the powers of that polynomial matrix, in exact integers.  General
windows enumerate all m^n labelings once per length, under a cap that a
table checks for every length before it enumerates any.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .algebraic import log_big_int
from .groups import SoficMap, sofic_map_from_quotient, torus_quotient

__all__ = [
    "EnumerationCapError",
    "SubshiftSFT",
    "HomCountReport",
    "SubshiftEntropyTable",
    "TableRow",
    "full_shift",
    "golden_mean",
    "budget_from_delta",
    "hom_count_full_shift",
    "transfer_matrix_count",
    "hom_count_exact",
    "subshift_entropy_table",
]

DEFAULT_ENUMERATION_CAP = 10**7

_CHUNK = 1 << 16


class EnumerationCapError(RuntimeError):
    """Too many labelings to enumerate; use transfer_matrix_count instead."""


@dataclass(frozen=True)
class SubshiftSFT:
    """Alphabet, window, and allowed-pattern set of a Z-subshift.

    Patterns are tuples aligned with the window tuple: ``pattern[i]`` is
    the symbol at offset ``window[i]``.
    """

    alphabet: tuple
    window: tuple
    allowed: frozenset

    rank = 1

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        window = tuple(int(w) for w in self.window)
        allowed = frozenset(tuple(p) for p in self.allowed)
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet has repeated symbols")
        if not window:
            raise ValueError("window must be nonempty")
        if len(set(window)) != len(window):
            raise ValueError("window has repeated offsets")
        if not allowed:
            raise ValueError("allowed pattern set must be nonempty")
        symbols = set(alphabet)
        for pat in allowed:
            if len(pat) != len(window):
                raise ValueError(f"pattern {pat!r} does not cover the window")
            if any(s not in symbols for s in pat):
                raise ValueError(f"pattern {pat!r} uses symbols outside the alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "allowed", allowed)

    @property
    def is_nearest_neighbor(self) -> bool:
        return set(self.window) == {0, 1}

    def symbol_index(self) -> dict:
        return {s: i for i, s in enumerate(self.alphabet)}

    def allowed_pairs(self) -> set:
        """Allowed transitions (symbol at 0, symbol at 1) for NN windows."""
        if not self.is_nearest_neighbor:
            raise ValueError("window shape unsupported; expected offsets {0, 1}")
        i0 = self.window.index(0)
        i1 = self.window.index(1)
        return {(pat[i0], pat[i1]) for pat in self.allowed}

    def to_json_obj(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "window": list(self.window),
            "allowed": sorted([list(p) for p in self.allowed]),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SubshiftSFT":
        for key in ("alphabet", "window", "allowed"):
            if key not in obj:
                raise ValueError(f"SFT description is missing the {key!r} field")
        return cls(
            alphabet=tuple(obj["alphabet"]),
            window=tuple(obj["window"]),
            allowed=frozenset(tuple(p) for p in obj["allowed"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "SubshiftSFT":
        return cls.from_json_obj(json.loads(text))


def full_shift(k: int) -> SubshiftSFT:
    """The unconstrained shift on k symbols (all transitions allowed)."""
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    symbols = tuple(range(k))
    return SubshiftSFT(
        alphabet=symbols,
        window=(0, 1),
        allowed=frozenset((a, b) for a in symbols for b in symbols),
    )


def golden_mean() -> SubshiftSFT:
    """Binary shift forbidding adjacent 1s."""
    return SubshiftSFT(
        alphabet=(0, 1), window=(0, 1), allowed=frozenset({(0, 0), (0, 1), (1, 0)})
    )


@dataclass(frozen=True)
class HomCountReport:
    """One homomorphism count over one sofic approximation.

    ``budget`` is the number of sites allowed to carry a disallowed
    pulled-back pattern and ``delta`` the matching l^2 threshold, related
    by budget = floor(delta^2 * d).
    """

    quotient_label: str
    d: int
    delta: float
    budget: int
    count: int
    method: str

    def __post_init__(self):
        if self.budget != budget_from_delta(self.delta, self.d):
            raise ValueError("budget and delta are inconsistent")


def budget_from_delta(delta: float, d: int) -> int:
    """floor(delta^2 * d), with a small epsilon so exact roundtrips survive."""
    return int(math.floor(delta * delta * d + 1e-6))


def _delta_for_budget(budget: int, d: int) -> float:
    return math.sqrt(budget / d) if d > 0 else 0.0


def hom_count_full_shift(k: int, sigma: SoficMap) -> HomCountReport:
    """Count for the full shift on k symbols: exactly k^d, for any sigma.

    Every labeling of the d sites extends to an equivariant family of
    points of the full shift, so the count is independent of the
    approximation quality, the constraint set, and the budget.
    """
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    return HomCountReport(
        quotient_label=sigma.label or f"d={sigma.d}",
        d=sigma.d,
        delta=0.0,
        budget=0,
        count=k**sigma.d,
        method="closed_form",
    )


def transfer_matrix_count(sft: SubshiftSFT, n: int, budget: int = 0) -> int:
    """Labelings of Z/n with at most ``budget`` bad cyclic transitions.

    A transition at site k is the pair (l(k), l(k+1 mod n)); it is bad when
    not allowed.  The count is the sum of the coefficients of z^0..z^budget
    in trace((T + z(J - T))^n), T the 0/1 transition matrix and J the
    all-ones matrix; the zero-budget count is trace(T^n).
    """
    if n < 1:
        raise ValueError("cycle length must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    return sum(_transfer_traces(sft, [n], min(budget, n))[n])


def _mat_mul(a: list, b: list, mask: int) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) & mask for col in cols] for row in a]


def _mat_pow(a: list, e: int, mask: int) -> list:
    """a^e for e >= 1 by repeated squaring."""
    result = None
    while True:
        if e & 1:
            result = a if result is None else _mat_mul(result, a, mask)
        e >>= 1
        if not e:
            return result
        a = _mat_mul(a, a, mask)


def _transfer_traces(sft: SubshiftSFT, lengths: Iterable[int], degree: int) -> dict:
    """n -> coefficients of z^0..z^degree in trace((T + z(J - T))^n).

    The coefficient of z^k counts the cyclic labelings of Z/n with exactly
    k bad transitions.  A polynomial entry is packed into one integer,
    ``width`` bits per coefficient.  Coefficients are nonnegative, and each
    slot of a product, or of the trace, counts walks of at most n steps, so
    it is at most m^n < 2^width: slots never carry into each other, and
    truncation at z^degree is a bit mask.  The sorted distinct lengths are
    walked once, P_n = P_prev M^(n - prev), each gap power by squaring.
    """
    pairs = sft.allowed_pairs()
    symbols = sft.alphabet
    m = len(symbols)
    lengths = sorted(set(lengths))
    width = (m ** lengths[-1]).bit_length()
    mask = (1 << (width * (degree + 1))) - 1
    z = (1 << width) & mask
    step = [[1 if (a, b) in pairs else z for b in symbols] for a in symbols]
    slot = (1 << width) - 1
    traces = {}
    power, done = None, 0
    for n in lengths:
        gap = _mat_pow(step, n - done, mask)
        power = gap if power is None else _mat_mul(power, gap, mask)
        done = n
        trace = sum(power[i][i] for i in range(m))
        traces[n] = [(trace >> (k * width)) & slot for k in range(degree + 1)]
    return traces


def _pulled_back_checks(sft: SubshiftSFT, sigma: SoficMap, constraints) -> list:
    """Column-index arrays for every window translate inside the constraint set.

    A translate t contributes when t + w lies in the constraint set for all
    window offsets w; each contribution is the list of site-index arrays
    (one per window position) that assemble the pulled-back pattern.
    """
    cset = {int(t) for t in constraints}
    window = sft.window
    candidates = sorted({t - w for t in cset for w in window})
    checks = []
    for t in candidates:
        if all((t + w) in cset for w in window):
            checks.append([sigma.inverse_perm(t + w) for w in window])
    return checks


def hom_count_exact(
    sft: SubshiftSFT,
    sigma: SoficMap,
    constraints: Iterable[int],
    budget: int = 0,
    cap: Optional[int] = None,
) -> HomCountReport:
    """Exhaustively count labelings with at most ``budget`` bad sites.

    ``constraints`` is the finite set of group elements being tested; a
    site is good when every window translate fitting inside the constraint
    set pulls back to an allowed pattern.  Enumeration is capped at
    ``cap`` labelings (default 10^7); beyond that use
    transfer_matrix_count.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if sigma.rank != 1:
        raise ValueError("subshift counting requires a rank-1 sofic map")
    d = sigma.d
    _check_cap(len(sft.alphabet), d, cap)
    tally = _bad_site_tally(sft, sigma, constraints)
    return HomCountReport(
        quotient_label=sigma.label or f"d={d}",
        d=d,
        delta=_delta_for_budget(min(budget, d), d),
        budget=min(budget, d),
        count=sum(tally[: budget + 1]),
        method="exact_enumeration",
    )


def _check_cap(m: int, d: int, cap: Optional[int]) -> None:
    total = m**d
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if total > limit:
        raise EnumerationCapError(
            f"{total} labelings exceed the enumeration cap {limit}; "
            "use transfer_matrix_count for nearest-neighbor windows"
        )


def _pattern_codes(labels: np.ndarray, cols: list, m: int, dtype) -> np.ndarray:
    """Base-m code of the pattern read at every site, window position 0 lowest."""
    code = labels[..., cols[-1]].astype(dtype)
    for c in reversed(cols[:-1]):
        code = code * m + labels[..., c]
    return code


def _bad_site_tally(sft: SubshiftSFT, sigma: SoficMap, constraints) -> list:
    """Number of labelings of the d sites with exactly k bad sites, k = 0..d.

    A site is bad when some window translate pulls back to a disallowed
    pattern there.  The labelings are enumerated in blocks: the ``low``
    lowest digits run through one block of m^low rows built once, and each
    block fixes the remaining digits, whose share of every pattern code is
    a single d-vector added to the block's precomputed codes.
    """
    m = len(sft.alphabet)
    d = sigma.d
    checks = _pulled_back_checks(sft, sigma, constraints)
    wlen = len(sft.window)
    index = sft.symbol_index()
    allowed_codes = np.zeros(m**wlen, dtype=bool)
    for pat in sft.allowed:
        code = 0
        for i in range(wlen - 1, -1, -1):
            code = code * m + index[pat[i]]
        allowed_codes[code] = True
    code_type = np.min_scalar_type(m**wlen - 1)

    low = 0
    while low < d and m ** (low + 1) <= _CHUNK:
        low += 1
    ids = np.arange(m**low)
    digits = np.zeros((m**low, d), dtype=np.min_scalar_type(m - 1))
    for j in range(low):
        digits[:, j] = ids % m
        ids //= m
    low_codes = [_pattern_codes(digits, cols, m, code_type) for cols in checks]

    high = np.zeros(d, dtype=digits.dtype)
    tally = np.zeros(d + 1, dtype=np.int64)
    for top in itertools.product(range(m), repeat=d - low):
        high[low:] = top
        good = np.ones(digits.shape, dtype=bool)
        for cols, low_code in zip(checks, low_codes):
            good &= allowed_codes.take(low_code + _pattern_codes(high, cols, m, code_type))
        tally += np.bincount(d - np.count_nonzero(good, axis=1), minlength=d + 1)
    return tally.tolist()


@dataclass(frozen=True)
class TableRow:
    n: int
    budget: int
    count: int
    h_n: float
    method: str


@dataclass
class SubshiftEntropyTable:
    """h(n, budget) = log(count)/n over cyclic approximations Z/n.

    The budget-0 column is the principal estimate (exact periodic-point
    counts); positive budgets are the microstate relaxation.  A count of
    zero is recorded with h_n = -inf (null in JSON).
    """

    sft: SubshiftSFT
    rows: List[TableRow] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["n,budget,count,h_n,method"]
        for r in self.rows:
            lines.append(f"{r.n},{r.budget},{r.count},{r.h_n!r},{r.method}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "sft": self.sft.to_json_obj(),
            "rows": [
                {
                    "n": r.n,
                    "budget": r.budget,
                    "count": r.count,
                    "h_n": r.h_n if math.isfinite(r.h_n) else None,
                    "method": r.method,
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


def subshift_entropy_table(
    sft: SubshiftSFT,
    lengths: Sequence[int],
    budgets: Sequence[int] = (0,),
    cap: Optional[int] = None,
) -> SubshiftEntropyTable:
    """Tabulate h(n, budget) over cyclic quotients Z/n.

    The zero budget is always included.  Each distinct length is computed
    once and every budget of its rows is a prefix sum of the counts by
    number of bad sites.  Nearest-neighbor windows take one walk through
    the powers of the truncated polynomial transfer matrix; general windows
    enumerate every labeling, after the cap is checked for every length.
    """
    lengths = [int(n) for n in lengths]
    if not lengths:
        raise ValueError("at least one cycle length required")
    if any(n < 1 for n in lengths):
        raise ValueError("cycle lengths must be >= 1")
    budgets = sorted({int(b) for b in budgets} | {0})
    if budgets[0] < 0:
        raise ValueError("budgets must be >= 0")

    if sft.is_nearest_neighbor:
        method = "transfer_matrix"
        tallies = _transfer_traces(sft, lengths, min(budgets[-1], max(lengths)))
    else:
        method = "exact_enumeration"
        for n in lengths:
            _check_cap(len(sft.alphabet), n, cap)
        tallies = {}
        for n in dict.fromkeys(lengths):
            sigma = sofic_map_from_quotient(torus_quotient([n]), set(sft.window))
            tallies[n] = _bad_site_tally(sft, sigma, sft.window)

    table = SubshiftEntropyTable(sft=sft)
    for n in lengths:
        prefix = list(itertools.accumulate(tallies[n]))
        for budget in budgets:
            count = prefix[min(budget, len(prefix) - 1)]
            h = log_big_int(count) / n if count > 0 else float("-inf")
            table.rows.append(
                TableRow(n=n, budget=budget, count=count, h_n=h, method=method)
            )
    return table
