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
so all budgets of one length cost one computation.  On Z/n the tally is
the trace of the n-th power of a polynomial transfer matrix on the
higher-block presentation (`_block_step`), truncated at the largest budget
below n.  The traces obey the integer linear recurrence of its
characteristic polynomial (Bowen-Lanford; Lind-Marcus, Symbolic Dynamics
and Coding, 6.4), so a table walks the powers step by step to its longest
length, or, where the recurrence pays for its set-up, up to that
polynomial's degree and recurs past it (`_walk_cost`).  As enumerating all
m^n labelings once per length can be cheaper, `_walks` prices both routes
in `algebraic.COST_CAP`'s unit, takes the cheaper, and refuses it over that
cap, before any work.  Over any other sofic map, `hom_count_exact`
enumerates, under the same cap.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Iterable as IterableABC
from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Sequence

import numpy as np

from . import algebraic
from .algebraic import _TERM, _power_bits, log_big_int, walk_price
from .groups import ResourceGuardError, SoficMap, _is_integer
from .groups import sofic_map_from_quotient, torus_quotient

__all__ = [
    "SubshiftSFT",
    "SubshiftEntropyTable",
    "TableRow",
    "full_shift",
    "golden_mean",
    "hom_count_exact",
    "subshift_entropy_table",
]

# Units of `algebraic.COST_CAP` (about 5 ns), calibrated on single-shot runs
# in fresh processes: a step's fixed work, its work per entry and per
# addition, and per 64-bit word that it touches (`_walk_cost`); the
# recurrence's set-up (loading `companion` from bytecode, the walk's first
# call); and enumeration's work per 16 labeling sites and set-up per length
# (`_enumeration_cost`).
_STEP, _ENTRY, _ADD, _WORD = 675, 80, 16, 0.78125
_RECUR = 75000
_SITES16, _ENUMERATE = 25, 50000

_CHUNK = 1 << 16


def _listed(values, what: str) -> tuple:
    """``values`` as a tuple; scalars and strings are refused."""
    if isinstance(values, (str, bytes)) or not isinstance(values, IterableABC):
        raise ValueError(f"{what} must be a list, got {values!r}")
    return tuple(values)


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


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
        alphabet = _listed(self.alphabet, "alphabet")
        window = _listed(self.window, "window")
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        if not all(_hashable(s) for s in alphabet):
            raise ValueError(f"alphabet symbols must be hashable, got {list(alphabet)!r}")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet has repeated symbols")
        if not window:
            raise ValueError("window must be nonempty")
        if not all(_is_integer(w) for w in window):
            raise ValueError(f"window offsets must be integers, got {list(window)!r}")
        window = tuple(int(w) for w in window)
        if len(set(window)) != len(window):
            raise ValueError("window has repeated offsets")
        symbols = set(alphabet)
        patterns = []
        for pat in _listed(self.allowed, "allowed pattern set"):
            if not isinstance(pat, (list, tuple)):
                raise ValueError(f"pattern {pat!r} is not a list of symbols")
            pat = tuple(pat)
            if len(pat) != len(window):
                raise ValueError(f"pattern {pat!r} does not cover the window")
            if any(not _hashable(s) or s not in symbols for s in pat):
                raise ValueError(f"pattern {pat!r} uses symbols outside the alphabet")
            patterns.append(pat)
        allowed = frozenset(patterns)
        if not allowed:
            raise ValueError("allowed pattern set must be nonempty")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "allowed", allowed)

    def symbol_index(self) -> dict:
        return {s: i for i, s in enumerate(self.alphabet)}

    def to_json_obj(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "window": list(self.window),
            "allowed": sorted([list(p) for p in self.allowed]),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SubshiftSFT":
        if not isinstance(obj, dict):
            raise ValueError("SFT description must be a JSON object")
        for key in ("alphabet", "window", "allowed"):
            if key not in obj:
                raise ValueError(f"SFT description is missing the {key!r} field")
        return cls(alphabet=obj["alphabet"], window=obj["window"], allowed=obj["allowed"])

    @classmethod
    def from_json(cls, text: str) -> "SubshiftSFT":
        return cls.from_json_obj(json.loads(text))


def full_shift(k: int) -> SubshiftSFT:
    """The unconstrained shift on k symbols (all transitions allowed)."""
    if not _is_integer(k):
        raise ValueError(f"alphabet size must be an integer, got {k!r}")
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


def _block_length(sft: SubshiftSFT) -> int:
    """Length of the higher-block states: the window's span, at least 1."""
    return max(max(sft.window) - min(sft.window), 1)


def _block_step(sft: SubshiftSFT, z: int) -> list:
    """Step matrix of the higher-block presentation, with weights 1 and ``z``.

    The states are the words of ``_block_length`` symbol indices, numbered
    in base m with the first letter most significant.  The edge
    u -> u[1:] + (b,) reads the window pattern in u + (b,), the window
    shifted to start at 0: weight 1 when it is allowed, ``z`` when not.
    Every other entry is 0.
    """
    m = len(sft.alphabet)
    k = _block_length(sft)
    lo = min(sft.window)
    offsets = [w - lo for w in sft.window]
    index = sft.symbol_index()
    allowed = {tuple(index[s] for s in pat) for pat in sft.allowed}
    size = m**k
    step = [[0] * size for _ in range(size)]
    for u, word in enumerate(itertools.product(range(m), repeat=k)):
        for b in range(m):
            read = tuple((word + (b,))[o] for o in offsets)
            step[u][(u * m + b) % size] = 1 if read in allowed else z
    return step


def _transfer_traces(sft: SubshiftSFT, lengths: Iterable[int], degree: int, steps: int) -> dict:
    """n -> coefficients of z^0..z^degree in trace(B^n), B = ``_block_step``.

    Closed walks of n steps are one to one with the labelings l of Z/n,
    even for n <= k: the walk starts at (l(0), .., l(k - 1 mod n)), and its
    step i appends l(i + k mod n) and reads the window pattern at site i,
    so the coefficient of z^j counts the labelings with j bad sites.  B^n
    is walked to n = ``steps``, at least min(D, top) for D = (degree + 1) N
    and N states, as `_walk_cost` plans it, by steps P -> P B,
    shift-and-add over B's m nonzeros per column.  An entry packs its
    coefficients ``width`` bits apart, each at most m^top < 2^width.

    B = B_0 + z B_1 mod z^(degree + 1) acts as the D x D matrix M with B_0
    on its block diagonal and B_1 below, so a coefficient of trace(B^n) is
    a linear functional of M^n, and every longer length recurs: by
    Cayley-Hamilton it is sum_(j < D) t_j times that of trace(B^j)
    (trace(B^0) = N), t = x^n mod Q, `companion`'s monic walk on
    Q = det(x - M) = det(x - B_0)^(degree + 1), which Newton's identities
    give from tr(M^i) = (degree + 1) tr(B_0^i), i <= D.
    """
    lengths = sorted(set(lengths))
    m, top = len(sft.alphabet), lengths[-1]
    size = m ** _block_length(sft)
    order = (degree + 1) * size
    width = _power_bits(m, top)
    mask = (1 << (width * (degree + 1))) - 1
    step = _block_step(sft, (1 << width) & mask)
    # per column, its nonzero rows and their shifts: 0 for weight 1, width for z
    cols = [[(u, 0 if w == 1 else width) for u, w in enumerate(c) if w] for c in zip(*step)]
    slot = (1 << width) - 1
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    tallies = [[size] + [0] * degree]
    for _ in range(steps):
        power = [[sum([row[u] << s for u, s in col]) & mask for col in cols] for row in power]
        trace = sum(row[i] for i, row in enumerate(power))
        tallies.append([(trace >> (k * width)) & slot for k in range(degree + 1)])
    traces = {n: tallies[n] for n in lengths if n <= steps}
    if rest := lengths[len(traces):]:
        from .companion import Companion

        # i e_i = sum_(j <= i) (-1)^(j - 1) e_(i - j) tr(M^j); Q = sum (-1)^i e_i x^(D - i)
        e = [1]
        for i in range(1, order + 1):
            newton = sum((-1) ** (j - 1) * e[i - j] * tallies[j][0] for j in range(1, i + 1))
            e.append((degree + 1) * newton // i)
        walk = Companion([(-1) ** i * e[i] for i in range(order, -1, -1)]).walk(rest, math.log2(m))
        columns = list(zip(*tallies[:order]))
        for n, t in zip(rest, walk):
            traces[n] = [sum(map(operator.mul, t, column)) for column in columns]
    return traces


def _walk_cost(sft: SubshiftSFT, lengths: Sequence[int], degree: int) -> tuple:
    """(units, steps) of the cheaper plan of a table's transfer walk
    (`_transfer_traces`): S steps to the top length, R steps to min(D, top)
    and recurs past D.

    A step costs `_STEP`, `_ENTRY` for each of its m^(2k) entries, `_ADD`
    for each of their m additions, and `_WORD` for each 64-bit word that
    its additions, masks, trace and slots touch, an entry packed for the
    top length.  R adds `_RECUR` for its set-up, Newton's D^2 / 2
    multiply-adds at `_TERM`, and per distinct length n past D one step of
    the companion walk and (degree + 1) D dot terms (`algebraic.walk_price`,
    t's coefficients of n log2(m) + 1 bits, Q dense); then, shortest first
    and while R is below S and the cap, each longer gap adds its walk's
    price over one step.
    """
    lengths = sorted(set(lengths))
    m, top = len(sft.alphabet), lengths[-1]
    size = m ** _block_length(sft)
    order = (degree + 1) * size
    words = _power_bits(m, top) * (degree + 1) / 64
    touched = size * size * (m + 1) + size + 2 * (degree + 1)
    step = _STEP + size * size * (_ENTRY + m * _ADD) + touched * words * _WORD
    stepped, recurred = top * step, min(order, top) * step
    if rest := [n for n in lengths if n > order]:
        bits = math.log2(m)
        coefficients = (sum(rest) * bits + len(rest)) / 64
        recurred += _RECUR + _TERM * order * order / 2
        recurred += walk_price(order, order, len(rest), coefficients / len(rest))[0]
        recurred += (degree + 1) * order * (len(rest) * _TERM + coefficients)
        for last, n in zip([0] + rest, rest):
            if recurred > min(stepped, algebraic.COST_CAP):
                break
            if (gap := n - last) > 1:
                steps, squares = walk_price(order, order, gap, (n * bits + 1) / 64)
                recurred += min(steps, squares) - steps / gap
    if recurred < stepped:
        return math.ceil(recurred), min(order, top)
    return math.ceil(stepped), top


def _enumeration_cost(m: int, n: int) -> int:
    """Units of enumerating the m^n labelings of n sites: `_ENUMERATE` of
    set-up and m^n n labeling sites at `_SITES16` per 16, in exact integers."""
    return _ENUMERATE + (m**n * n * _SITES16 >> 4)


def _walks(sft: SubshiftSFT, lengths: Sequence[int], degree: int) -> int:
    """The steps of a table's transfer walk, as `_walk_cost` plans it, or
    0 when the table enumerates; the refusal of the route it picks is
    raised here, before any work.

    The table takes the cheaper of the walk and enumeration, which costs
    `_enumeration_cost` per distinct length (ties enumerate), and is
    refused when that price exceeds `algebraic.COST_CAP`.  Enumeration is
    priced shortest first, only until it passes the walk's price or the
    cap, and m^n is not raised for n past the bits of that limit, as it
    passes the limit there.
    """
    m, cap = len(sft.alphabet), algebraic.COST_CAP
    walk, steps = _walk_cost(sft, lengths, degree)
    limit, enumerated = min(walk, cap), 0
    for n in sorted(set(lengths)):
        if enumerated > limit:
            break
        enumerated += _enumeration_cost(m, n) if m == 1 or n <= limit.bit_length() else limit + 1
    if enumerated <= limit:
        return 0
    if walk > cap:
        raise ResourceGuardError(
            f"the transfer walk's estimated cost {walk} and enumeration's exceed the cap {cap}"
        )
    return steps


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
            # argsort of a permutation is its inverse
            checks.append([np.argsort(sigma.perm(t + w)) for w in window])
    return checks


def hom_count_exact(
    sft: SubshiftSFT,
    sigma: SoficMap,
    constraints: Iterable[int],
    budget: int = 0,
) -> int:
    """Exhaustively count labelings with at most ``budget`` bad sites.

    ``constraints`` is the finite set of group elements being tested; a
    site is good when every window translate fitting inside the constraint
    set pulls back to an allowed pattern.  Over d sites the paper's
    microstates within delta are these counts at budget = floor(delta^2 d).
    Refused, before any work, when its price (`_enumeration_cost`) exceeds
    `algebraic.COST_CAP`; on cyclic quotients with the window as constraint
    set, subshift_entropy_table gives the same counts by a transfer walk.
    """
    if not _is_integer(budget):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if sigma.rank != 1:
        raise ValueError("subshift counting requires a rank-1 sofic map")
    if (cost := _enumeration_cost(len(sft.alphabet), sigma.d)) > algebraic.COST_CAP:
        raise ResourceGuardError(
            f"enumeration's estimated cost {cost} exceeds the cap {algebraic.COST_CAP}"
        )
    return sum(_bad_site_tally(sft, sigma, constraints)[: budget + 1])


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


class TableRow(NamedTuple):
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


def subshift_entropy_table(
    sft: SubshiftSFT,
    lengths: Sequence[int],
    budgets: Sequence[int] = (0,),
) -> SubshiftEntropyTable:
    """Tabulate h(n, budget) over cyclic quotients Z/n.

    The zero budget is always included.  Each distinct length is computed
    once and every budget of its rows is a prefix sum of the counts by
    number of bad sites, or m^n when the budget is at least n.  The
    counts come from one transfer walk over the whole table, truncated at
    the largest budget below the longest length (`_transfer_traces`), or
    from enumerating every labeling once per length, as `_walks` picks and
    guards.
    """
    lengths, budgets, values = list(lengths), list(budgets), []
    for x in lengths + budgets:
        if not _is_integer(x):
            raise ValueError(f"cycle lengths and budgets must be integers, got {x!r}")
        values.append(int(x))
    lengths, budgets = values[: len(lengths)], sorted(set(values[len(lengths) :]) | {0})
    if not lengths:
        raise ValueError("at least one cycle length required")
    if min(lengths) < 1:
        raise ValueError("cycle lengths must be >= 1")
    if budgets[0] < 0:
        raise ValueError("budgets must be >= 0")

    degree = max(filter(max(lengths).__gt__, budgets))
    if steps := _walks(sft, lengths, degree):
        method = "transfer_matrix"
        tallies = _transfer_traces(sft, lengths, degree, steps)
    else:
        method = "exact_enumeration"
        tallies = {}
        for n in dict.fromkeys(lengths):
            sigma = sofic_map_from_quotient(torus_quotient([n]), set(sft.window))
            tallies[n] = _bad_site_tally(sft, sigma, sft.window)

    table = SubshiftEntropyTable(sft=sft)
    m = len(sft.alphabet)
    for n in lengths:
        prefix = list(itertools.accumulate(tallies[n]))
        for budget in budgets:
            count = m**n if budget >= n else prefix[budget]
            h = log_big_int(count) / n if count > 0 else float("-inf")
            table.rows.append(TableRow(n, budget, count, h, method))
    return table
