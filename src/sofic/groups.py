"""Group elements, integer group rings, finite quotients, and sofic maps.

Ambient groups come in two flavours:

* rank ``d >= 1``: the free abelian group Z^d.  Elements are plain ints for
  d = 1 and tuples of d ints otherwise.
* rank ``0`` ("word mode"): a group known only through explicit finite
  quotients.  Elements are reduced words in named generators, stored as
  tuples of ``(generator, exponent)`` pairs.  No relations are assumed, so
  products and inverses are always computable; equality of two distinct
  reduced words in the ambient group is *not* decidable from this data and
  is treated syntactically.

A finite quotient supplies coset arithmetic (cosets indexed 0..size-1),
the left-translation permutations that make up a sofic approximation, and
the split plan over an abelian subgroup that exact counting runs on, with
the orbits of that subgroup's characters under its normaliser.
Torus quotients enumerate cosets in lexicographic order of their exponent
vectors, so every derived matrix and report is reproducible bit for bit.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

__all__ = [
    "ParseError",
    "ResourceGuardError",
    "GroupRingElement",
    "TorusQuotient",
    "ExplicitQuotient",
    "SoficMap",
    "parse_laurent",
    "parse_word",
    "word_mul",
    "word_inv",
    "involution",
    "left_translate",
    "torus_quotient",
    "sofic_map_from_quotient",
    "multiplicative_defect",
    "freeness_defect",
    "identity_element",
    "element_mul",
    "element_inv",
]

# The most cosets of a torus quotient: its counts and sofic maps build O(d) arrays.
COSET_CAP = 10**6

VARIABLES = "xyzw"

# 64-bit signed bound applied to coefficient literals at parse time; all
# arithmetic after parsing is arbitrary precision.
COEFF_LIMIT = 2**63 - 1

Word = tuple  # tuple of (generator, exponent) pairs
Element = Union[int, tuple]


class ParseError(ValueError):
    """Syntax error in a Laurent polynomial or word, with 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ResourceGuardError(RuntimeError):
    """A request whose size or estimated cost exceeds its module's cap."""


def _is_integer(value) -> bool:
    """Whether an input field holds an integer: bools, floats and strings do not."""
    # a plain int, the common case, skips the slower ABC check
    if type(value) is int:
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# elements


def identity_element(rank: int) -> Element:
    if rank == 0:
        return ()
    if rank == 1:
        return 0
    return (0,) * rank


def normalize_element(elem, rank: int) -> Element:
    """Canonical form of an element of the rank-`rank` ambient group.

    Rank 1 accepts ints or 1-tuples and stores ints; rank d >= 2 requires
    length-d integer tuples; rank 0 requires a reduced word.
    """
    if rank == 0:
        if not isinstance(elem, tuple):
            raise ValueError(f"word-mode element must be a word tuple, got {elem!r}")
        return _reduce_word(elem)
    if rank == 1:
        value = elem[0] if isinstance(elem, tuple) and len(elem) == 1 else elem
        if not _is_integer(value):
            raise ValueError(f"rank-1 element must be an integer, got {elem!r}")
        return int(value)
    if not isinstance(elem, Iterable):
        raise ValueError(f"rank-{rank} element must be a {rank}-tuple, got {elem!r}")
    if not all(_is_integer(x) for x in elem):
        raise ValueError(f"element {elem!r} must have integer exponents")
    vec = tuple(int(x) for x in elem)
    if len(vec) != rank:
        raise ValueError(f"element {elem!r} has length {len(vec)}, expected {rank}")
    return vec


def element_mul(a, b, rank: int) -> Element:
    """Group product: componentwise sum for Z^d, concatenation for words."""
    if rank == 0:
        return word_mul(a, b)
    if rank == 1:
        return a + b
    return tuple(x + y for x, y in zip(a, b))


def element_inv(a, rank: int) -> Element:
    if rank == 0:
        return word_inv(a)
    if rank == 1:
        return -a
    return tuple(-x for x in a)


def element_norm1(a, rank: int) -> int:
    """Word length |s|_1: sum of |exponents| (used in Lipschitz bounds)."""
    if rank == 0:
        return sum(abs(e) for _, e in a)
    if rank == 1:
        return abs(a)
    return sum(abs(x) for x in a)


def _reduce_word(word) -> Word:
    out = []
    for item in word:
        gen, exp = item
        if not _is_integer(exp):
            raise ValueError(f"exponent of {gen!r} must be an integer, got {exp!r}")
        gen = str(gen)
        exp = int(exp)
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


def word_mul(a: Word, b: Word) -> Word:
    return _reduce_word(tuple(a) + tuple(b))


def word_inv(a: Word) -> Word:
    return tuple((gen, -exp) for gen, exp in reversed(tuple(a)))


_WORD_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\^|\*|-?\d+)")


def parse_word(text: str) -> Word:
    """Parse a word like ``a*b^-1*a^2`` into a reduced word tuple.

    The empty string, ``"1"``, and ``"e"`` denote the identity.  Generators
    are identifiers; factors are separated by ``*``; ``^`` takes a signed
    integer exponent.
    """
    stripped = text.strip()
    if stripped in ("", "1", "e"):
        return ()
    pos = 0
    factors = []
    expect_gen = True
    while pos < len(text):
        m = _WORD_TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {text[pos]!r} in word", pos)
        token = m.group(1)
        pos = m.end()
        if token == "*":
            if expect_gen:
                raise ParseError("misplaced '*' in word", m.start(1))
            expect_gen = True
            continue
        if not expect_gen:
            raise ParseError("missing '*' between word factors", m.start(1))
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            raise ParseError(f"expected generator name, got {token!r}", m.start(1))
        gen = token
        exp = 1
        m2 = _WORD_TOKEN.match(text, pos)
        if m2 is not None and m2.group(1) == "^":
            pos = m2.end()
            m3 = _WORD_TOKEN.match(text, pos)
            if m3 is None or not re.fullmatch(r"-?\d+", m3.group(1)):
                raise ParseError("expected integer exponent after '^'", pos)
            exp = int(m3.group(1))
            pos = m3.end()
        factors.append((gen, exp))
        expect_gen = False
    if expect_gen and factors:
        raise ParseError("word ends with dangling '*'", len(text))
    return _reduce_word(factors)


def render_word(word: Word) -> str:
    if not word:
        return "e"
    parts = []
    for gen, exp in word:
        parts.append(gen if exp == 1 else f"{gen}^{exp}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# group ring elements


def _term_sort_key(exp, rank: int):
    # Norm-first ordering; within a norm class, earlier axes come first and
    # positive exponents precede negative ones.  Reproduces e.g.
    # "5 - x - x^-1 - y - y^-1" on rendering.
    if rank == 0:
        return (element_norm1(exp, 0), exp)
    vec = (exp,) if rank == 1 else exp
    norm = sum(abs(x) for x in vec)
    axes = tuple((i, -e) for i, e in enumerate(vec) if e != 0)
    return (norm, axes)


class GroupRingElement:
    """A finitely supported integer-coefficient function on the group.

    ``rank`` is the ambient rank (0 for word mode).  ``terms`` maps group
    elements to nonzero integer coefficients; zero coefficients are dropped
    on construction and the stored order is canonical, so equal elements
    have equal reprs.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping):
        rank = int(rank)
        if rank < 0:
            raise ValueError("rank must be >= 0")
        combined: dict = {}
        for elem, coeff in terms.items():
            key = normalize_element(elem, rank)
            if not _is_integer(coeff):
                raise ValueError(f"coefficient of {elem!r} must be an integer, got {coeff!r}")
            coeff = int(coeff)
            combined[key] = combined.get(key, 0) + coeff
        ordered = sorted(
            ((k, v) for k, v in combined.items() if v != 0),
            key=lambda kv: _term_sort_key(kv[0], rank),
        )
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", dict(ordered))

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    @property
    def one_norm(self) -> int:
        """Sum of absolute coefficients, the l^1 norm of the element."""
        return sum(abs(c) for c in self.terms.values())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list:
        return list(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, tuple(self.terms.items())))

    def render(self) -> str:
        """Canonical string form; parse_laurent(render(f), rank) == f."""
        if not self.terms:
            return "0"
        pieces = []
        for elem, coeff in self.terms.items():
            mono = self._render_monomial(elem)
            mag = abs(coeff)
            if mono is None:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append((coeff < 0, body))
        out = ("-" if pieces[0][0] else "") + pieces[0][1]
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def _render_monomial(self, elem) -> Optional[str]:
        if self.rank == 0:
            return None if elem == () else render_word(elem)
        vec = (elem,) if self.rank == 1 else elem
        factors = []
        for axis, e in enumerate(vec):
            if e == 0:
                continue
            var = VARIABLES[axis]
            factors.append(var if e == 1 else f"{var}^{e}")
        return "*".join(factors) if factors else None

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"GroupRingElement(rank={self.rank}, terms={self.terms!r})"


def involution(f: GroupRingElement) -> GroupRingElement:
    """The adjoint f*: each term s -> c becomes s^-1 -> c.

    Integer coefficients are self-conjugate, so only the support is
    reflected.  Applying it twice returns the original element.
    """
    return GroupRingElement(
        f.rank, {element_inv(s, f.rank): c for s, c in f.terms.items()}
    )


def left_translate(f: GroupRingElement, s) -> GroupRingElement:
    """Multiply by the group element s on the left: terms t -> c become s*t -> c."""
    s = normalize_element(s, f.rank)
    return GroupRingElement(
        f.rank, {element_mul(s, t, f.rank): c for t, c in f.terms.items()}
    )


# ---------------------------------------------------------------------------
# Laurent polynomial parser
#
# Grammar (whitespace insignificant):
#   expr     := ['+'|'-'] term (('+'|'-') term)*
#   term     := integer | [integer ['*']] monomial
#   monomial := factor (['*'] factor)*
#   factor   := var ['^' signed-integer]
#   var      := 'x' | 'y' | 'z' | 'w'        (axes 1..4, limited by rank)
# '*' separators between factors are accepted and produced by render().

_TOKEN = re.compile(r"\s*(\d+|[xyzw+\-*^])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse_laurent(text: str, rank: int) -> GroupRingElement:
    """Parse a Laurent polynomial in x, y, z, w into a group ring element.

    ``rank`` must be between 1 and 4; variables beyond the rank are
    rejected.  Like terms are combined and terms with net coefficient zero
    are dropped.  Coefficient literals must fit in a signed 64-bit integer;
    everything downstream is arbitrary precision.
    """
    if not 1 <= rank <= 4:
        raise ValueError("rank must be between 1 and 4")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    terms: dict = {}
    i = 0
    n = len(tokens)

    def peek():
        return tokens[i][0] if i < n else None

    first = True
    while i < n:
        sign = 1
        if peek() in ("+", "-"):
            if peek() == "-":
                sign = -1
            i += 1
            if i >= n:
                raise ParseError("dangling sign", tokens[i - 1][1])
        elif not first:
            raise ParseError(f"expected '+' or '-', got {tokens[i][0]!r}", tokens[i][1])
        first = False

        coeff = 1
        has_coeff = False
        if peek() is not None and peek().isdigit():
            tok, tokpos = tokens[i]
            value = int(tok)
            if value > COEFF_LIMIT:
                raise ParseError(f"coefficient literal {tok} exceeds 64-bit range", tokpos)
            coeff = value
            has_coeff = True
            i += 1
            if peek() == "*":
                i += 1
                if peek() is None or peek() not in VARIABLES:
                    raise ParseError("expected variable after '*'", tokens[i - 1][1])

        exponent = [0, 0, 0, 0]
        has_mono = False
        while peek() is not None and peek() in VARIABLES:
            var, varpos = tokens[i]
            axis = VARIABLES.index(var)
            if axis >= rank:
                raise ParseError(f"variable {var!r} out of rank {rank}", varpos)
            i += 1
            exp = 1
            if peek() == "^":
                i += 1
                esign = 1
                if peek() in ("+", "-"):
                    if peek() == "-":
                        esign = -1
                    i += 1
                if peek() is None or not peek().isdigit():
                    pos = tokens[i][1] if i < n else len(text)
                    raise ParseError("expected integer exponent after '^'", pos)
                exp = esign * int(tokens[i][0])
                i += 1
            exponent[axis] += exp
            has_mono = True
            if peek() == "*":
                if i + 1 < n and tokens[i + 1][0] in VARIABLES:
                    i += 1
                else:
                    raise ParseError("expected variable after '*'", tokens[i][1])

        if not has_coeff and not has_mono:
            pos = tokens[i][1] if i < n else len(text)
            raise ParseError("expected a term", pos)

        key = exponent[0] if rank == 1 else tuple(exponent[:rank])
        terms[key] = terms.get(key, 0) + sign * coeff

    return GroupRingElement(rank, terms)


# ---------------------------------------------------------------------------
# finite quotients


@dataclass(frozen=True)
class SplitPlan:
    """How the convolution matrix M of f splits over an abelian subgroup A.

    A = Z/moduli[0] x ... x Z/moduli[-1] acts on the quotient by right
    translation, which commutes with M.  Its left cosets have
    representatives r_0, ..., r_{m-1}.  For the t-th folded term c, with
    coefficient ``coeffs[t]`` (never 0), c^-1 r_i = r_{cols[t, i]} a for
    the element a of A with coordinates ``coords[t, i]``.

    Right translation by an n normalising A maps the chi-isotypic part of
    M onto the chi^n one, chi^n(a) = chi(n^-1 a n), so the blocks of one
    orbit of characters under the normaliser are similar.  ``orbit_reps``
    lists one character per orbit, as the row-major flat index of its
    coordinates j (chi_j in ``algebraic._split_det``), and ``orbit_sizes``
    the orbits' sizes.  Both are None when every character of A is its own
    orbit, so such a plan takes space in the terms alone.

    ``symmetric`` flags f = f* on the quotient (fhat[c] = fhat[c^-1]): M is
    then real symmetric, the blocks of chi and chi^-1 have equal
    determinants, and the orbits are closed under chi -> chi^-1 as well.
    """

    moduli: tuple
    coeffs: list
    cols: np.ndarray  # (terms, m)
    coords: np.ndarray  # (terms, m, len(moduli))
    orbit_reps: Optional[np.ndarray]  # (orbits,)
    orbit_sizes: Optional[np.ndarray]  # (orbits,)
    symmetric: bool = False

    @property
    def orbits(self) -> int:
        """The number of orbits of characters, one block each."""
        return math.prod(self.moduli) if self.orbit_reps is None else len(self.orbit_reps)


@dataclass(frozen=True)
class TorusQuotient:
    """The quotient Z^d / (n_1 Z x ... x n_d Z).

    Cosets are indexed 0..size-1 in lexicographic order of their exponent
    vectors (row-major), and coset arithmetic is componentwise modular
    addition.  A count reads its size, rank, label and `split_plan`, which
    is both what the split runs and what it is priced from.
    """

    moduli: tuple

    def __post_init__(self):
        moduli = tuple(self.moduli)
        if not all(_is_integer(n) for n in moduli):
            raise ValueError(f"moduli must be integers, got {list(moduli)!r}")
        moduli = tuple(int(n) for n in moduli)
        if not moduli:
            raise ValueError("at least one modulus required")
        if any(n < 1 for n in moduli):
            raise ValueError("moduli must be >= 1")
        object.__setattr__(self, "moduli", moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def size(self) -> int:
        return math.prod(self.moduli)

    @property
    def identity_index(self) -> int:
        return 0

    @property
    def label(self) -> str:
        return "x".join(f"Z/{n}" for n in self.moduli)

    def index(self, elem) -> int:
        """Coset index of an ambient element (componentwise mod, row-major)."""
        elem = normalize_element(elem, self.rank)
        vec = (elem,) if self.rank == 1 else elem
        idx = 0
        for x, n in zip(vec, self.moduli):
            idx = idx * n + (x % n)
        return idx

    def exponent(self, index: int):
        """Representative exponent vector of a coset index."""
        vec = []
        for n in reversed(self.moduli):
            vec.append(index % n)
            index //= n
        vec.reverse()
        return vec[0] if self.rank == 1 else tuple(vec)

    def coset_translation_perm(self, coset: int) -> np.ndarray:
        """Permutation k -> index(coset + k) as an int64 array: the row-major
        index grid rolled back by the coset's exponent along every axis."""
        shift = self.exponent(coset)
        shift = (shift,) if self.rank == 1 else shift
        grid = np.arange(self.size, dtype=np.int64).reshape(self.moduli)
        return np.roll(grid, [-s for s in shift], axis=tuple(range(self.rank))).ravel()

    def split_plan(self, f: GroupRingElement) -> SplitPlan:
        """The split over A = the whole quotient: one coset and 1 x 1
        blocks, the characters, the terms fhat without its zeros, each at
        the coordinates of c^-1, that is -c componentwise mod n_i."""
        moduli = self.moduli
        fhat: dict = {}
        for s, c in f.terms.items():
            key = tuple(-x % n for x, n in zip((s,) if len(moduli) == 1 else s, moduli))
            fhat[key] = fhat.get(key, 0) + c
        fhat = {key: c for key, c in fhat.items() if c}
        coords = np.array(list(fhat), dtype=np.int64).reshape(len(fhat), 1, len(moduli))
        cols = np.zeros((len(fhat), 1), dtype=np.int64)
        # A = G is abelian, so every orbit of characters is a single one
        return SplitPlan(moduli, list(fhat.values()), cols, coords, None, None)


def torus_quotient(moduli: Iterable[int]) -> TorusQuotient:
    """Build Z^d / prod(n_i Z), refusing more than COSET_CAP cosets."""
    q = TorusQuotient(tuple(moduli))
    if q.size > COSET_CAP:
        raise ResourceGuardError(f"quotient size {q.size} exceeds the coset cap {COSET_CAP}")
    return q


class ExplicitQuotient:
    """A finite quotient given by a multiplication table and generator images.

    The table must define a group and the generator images must generate
    it, so the induced map from words onto cosets is a surjective
    homomorphism.  Construction checks the axioms in order: an identity e;
    that every row holds e, so each element has a right inverse; Light's
    test on each generator image that M, the closure of e under left
    multiplication by the images passed so far, does not reach yet; and
    that M is the whole table.  This proves a group.  Light's elements, the
    s with (x s) y = x (s y) for all x, y, hold e and are closed under
    products, so M is a monoid of them.  Take x in M with x y = e: from
    x^a = x^(a+b), right-multiplying a times by y (x is one of Light's)
    gives x^b = e, so M is a group.  If M is the whole table, the table is
    associative with an identity and right inverses: a group, so a Latin
    square too.  Each image that passes and grows M at least doubles it
    (Lagrange), so Light's test runs at most floor(log2 d) + 1 times.
    Ambient elements are words in the named generators.
    """

    __slots__ = ("table", "generator_images", "label", "identity_index", "_inverses")

    rank = 0

    def __init__(self, table, generator_images: Mapping[str, int], label: str = ""):
        table = np.asarray(table)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        d = table.shape[0]
        if d == 0:
            raise ValueError("empty multiplication table")
        # a float, a string or None anywhere, or bools throughout, infer
        # another dtype than int
        if table.dtype.kind not in "iu":
            raise ValueError(f"table entries must be integers, not {table.dtype}")
        table = table.astype(np.int64, copy=False)
        if table.min() < 0 or table.max() >= d:
            raise ValueError("table entries must be coset indices in 0..size-1")
        self.table = table
        self.table.setflags(write=False)
        if not isinstance(generator_images, Mapping):
            raise ValueError("generator images must map generator names to elements")
        self.generator_images = {}
        for g, i in generator_images.items():
            if not _is_integer(i):
                raise ValueError(f"image of generator {g!r} must be an integer, got {i!r}")
            if not 0 <= i < d:
                raise ValueError(f"image of generator {g!r} out of range")
            self.generator_images[str(g)] = int(i)
        self.label = label or f"explicit({d})"
        self._check_group()

    @property
    def size(self) -> int:
        return int(self.table.shape[0])

    def _check_group(self):
        t = self.table
        d = self.size
        idx = np.arange(d, dtype=np.int64)
        # an identity has 0 * e = 0, and is the only left identity
        left = (u for u in np.flatnonzero(t[0] == 0) if np.array_equal(t[u], idx))
        e = self.identity_index = int(next(left, 0))
        if not (np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx)):
            raise ValueError("multiplication table has no identity element")
        self._inverses = np.argmax(t == e, axis=1)
        missing = np.flatnonzero(t[idx, self._inverses] != e)
        if missing.size:
            raise ValueError(f"element {missing[0]} has no inverse")
        # Light's test on each image outside the closure M, then M grown by
        # left multiplications, marking each round's products in a mask.
        # np.take gathers the columns faster than t[:, t[s]]: 19 ms against
        # 52 ms per generator at d = 2184 on a 2-vCPU VM.
        reached = idx == e
        passed = []
        for s in self.generator_images.values():
            if reached[s]:
                continue
            if not np.array_equal(t[t[:, s]], np.take(t, t[s], axis=1)):
                raise ValueError("multiplication table is not associative")
            passed.append(s)
            frontier = np.flatnonzero(reached)
            while frontier.size:
                hit = np.zeros(d, dtype=bool)
                hit[t[np.ix_(passed, frontier)]] = True
                frontier = np.flatnonzero(hit & ~reached)
                reached[frontier] = True
        if not reached.all():
            raise ValueError(
                "generator images do not generate the quotient "
                f"({int(reached.sum())} of {d} cosets reached)"
            )

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self._inverses[a])

    def index(self, elem) -> int:
        """Image of a word under the quotient map."""
        word = normalize_element(elem, 0)
        acc = self.identity_index
        for gen, exp in word:
            if gen not in self.generator_images:
                raise ValueError(f"unknown generator {gen!r} for quotient {self.label}")
            g = self.generator_images[gen]
            if exp < 0:
                g = self.inv(g)
                exp = -exp
            # square-and-multiply inside the finite group
            base = g
            while exp:
                if exp & 1:
                    acc = self.mul(acc, base)
                base = self.mul(base, base)
                exp >>= 1
        return acc

    def coset_translation_perm(self, coset: int) -> np.ndarray:
        return self.table[coset].copy()

    def split_plan(self, f: GroupRingElement) -> SplitPlan:
        """The split over the abelian A = <g_1> x ... x <g_r> that
        `_abelian_subgroup` grows, with one character per orbit of its
        normaliser, and of chi -> chi^-1 too when f = f*.  Every element is
        r a for the smallest element r of its coset rA and an a in A, so
        c^-1 r_i = r_{cols} a has the coordinates of a = r^-1 c^-1 r_i."""
        fhat: dict = {}
        for s, c in f.terms.items():
            idx = self.index(s)
            fhat[idx] = fhat.get(idx, 0) + c
        fhat = {idx: c for idx, c in fhat.items() if c}
        symmetric = all(fhat.get(self.inv(idx)) == c for idx, c in fhat.items())
        table, inverses, d = self.table, self._inverses, self.size
        gens, moduli, members = _abelian_subgroup(table, self.identity_index)
        where = np.full(d, -1, dtype=np.int64)  # flat coordinates in A, -1 outside
        where[members] = np.arange(members.size)
        # low[x], the smallest element of xA: the smallest of x<g_1>, then the
        # smallest of those over x<g_2>, and so on
        low = np.arange(d, dtype=np.int64)
        for g, n in zip(gens, moduli):
            x, smallest = np.arange(d, dtype=np.int64), low
            for _ in range(n - 1):
                x = table[x, g]
                smallest = np.minimum(smallest, low[x])
            low = smallest
        reps = np.flatnonzero(low == np.arange(d))
        coset = np.zeros(d, dtype=np.int64)
        coset[reps] = np.arange(reps.size)
        images = table[inverses[list(fhat)][:, None], reps]  # c^-1 r_i
        r = low[images]
        coords = np.stack(np.unravel_index(where[table[inverses[r], images]], moduli), axis=-1)
        orbits = _character_orbits(table, inverses, gens, moduli, where, reps, symmetric)
        return SplitPlan(moduli, list(fhat.values()), coset[r], coords, *orbits, symmetric)

    def __repr__(self) -> str:
        return f"ExplicitQuotient(label={self.label!r}, size={self.size})"


Quotient = Union[TorusQuotient, ExplicitQuotient]


def _abelian_subgroup(table: np.ndarray, identity: int) -> tuple:
    """(gens, moduli, members) of an abelian A = <g_1> x ... x <g_r>, grown
    greedily: g_1 is the first element of maximal order, and each next g_l
    the first of maximal order among the elements that commute with
    g_1 .. g_(l-1) and whose cyclic group meets A only in the identity.
    ``members[j]`` is g_1^j_1 ... g_r^j_r, j = (j_1 .. j_r) the row-major
    flat index j, so the product is direct and j its coordinates."""
    d = table.shape[0]
    elems = np.arange(d, dtype=np.int64)
    order = np.zeros(d, dtype=np.int64)
    power = elems
    k = 1
    while not order.all():
        order[(power == identity) & (order == 0)] = k
        power = table[power, elems]
        k += 1
    gens, moduli = [], []
    members = np.array([identity], dtype=np.int64)
    inside = np.zeros(d, dtype=bool)
    commute = np.ones(d, dtype=bool)
    candidates = elems
    while candidates.size:
        g = int(candidates[np.argmax(order[candidates])])
        powers = [identity]
        for _ in range(order[g] - 1):
            powers.append(int(table[powers[-1], g]))
        members = table[members[:, None], powers].ravel()
        inside[members] = True
        gens.append(g)
        moduli.append(int(order[g]))
        commute &= table[:, g] == table[g]
        candidates = np.flatnonzero(commute & ~inside)
        # drop each h with some h^t in A, 0 < t < order(h)
        power, meets = candidates, np.zeros(candidates.size, dtype=bool)
        for t in range(1, int(order[candidates].max(initial=1))):
            meets |= inside[power] & (t < order[candidates])
            power = table[power, candidates]
        candidates = candidates[~meets]
    return gens, tuple(moduli), members


def _character_orbits(table, inverses, gens, moduli, where, reps, symmetric) -> tuple:
    """(orbit_reps, orbit_sizes) of the characters of A under its normaliser,
    and under chi -> chi^-1 too when ``symmetric``.

    A is abelian, so it acts trivially on its characters, and the coset
    representatives n in ``reps`` that normalise A give every chi^n: those
    with every n^-1 g_l n in A (``where`` >= 0).  With k = exp(A) and
    chi_j(a) = omega^(sum_l j_l a_l k / n_l), chi_j^n(g_l) =
    chi_j(n^-1 g_l n) is omega^(j_l' k / n_l) for the coordinates j' of
    chi_j^n.  Inversion, j -> -j, commutes with that action, so adding the
    inverse of every image closes the orbits under both.  Each orbit is
    labelled by its smallest flat index.
    """
    k = math.lcm(*moduli)
    unit = k // np.array(moduli, dtype=np.int64)
    conj = where[table[table[inverses[reps][:, None], gens], reps[:, None]]]
    conj = conj[(conj >= 0).all(axis=1)]
    # scaled[n, l, i]: coordinate i of n^-1 g_l n, times k / n_i
    scaled = np.stack(np.unravel_index(conj, moduli), axis=-1) * unit
    chars = np.indices(moduli, dtype=np.int64).reshape(len(moduli), -1).T
    image = chars @ scaled.transpose(0, 2, 1) % k // unit
    if symmetric:
        image = np.concatenate([image, -image % np.array(moduli)])
    label = np.ravel_multi_index(tuple(np.moveaxis(image, -1, 0)), moduli).min(axis=0)
    orbit_reps = np.flatnonzero(label == np.arange(label.size))
    return orbit_reps, np.bincount(label)[orbit_reps]


# ---------------------------------------------------------------------------
# sofic maps and their defects


@dataclass(frozen=True)
class SoficMap:
    """A finite family of permutations of {0..d-1} indexed by group elements.

    ``rank`` fixes how element products are formed when defects are
    measured (tuple addition for Z^d, free reduction for words).  The
    stored arrays are treated as immutable.
    """

    d: int
    perms: dict
    rank: int
    label: str = ""

    def __post_init__(self):
        normalized = {}
        for elem, perm in self.perms.items():
            key = normalize_element(elem, self.rank)
            arr = np.asarray(perm, dtype=np.int64)
            if arr.shape != (self.d,):
                raise ValueError(f"permutation for {key!r} has wrong length")
            if not np.array_equal(np.sort(arr), np.arange(self.d, dtype=np.int64)):
                raise ValueError(f"stored image for {key!r} is not a bijection")
            arr.setflags(write=False)
            normalized[key] = arr
        object.__setattr__(self, "perms", normalized)

    def perm(self, elem) -> np.ndarray:
        key = normalize_element(elem, self.rank)
        try:
            return self.perms[key]
        except KeyError:
            raise ValueError(f"no permutation stored for element {key!r}") from None


def sofic_map_from_quotient(q: Quotient, elems: Iterable) -> SoficMap:
    """Left-translation permutations of the listed ambient elements on G/Gn.

    The resulting map is a genuine homomorphism on its domain, so its
    multiplicative defects vanish identically.
    """
    perms = {}
    for elem in elems:
        key = normalize_element(elem, q.rank)
        perms[key] = q.coset_translation_perm(q.index(key))
    return SoficMap(d=q.size, perms=perms, rank=q.rank, label=q.label)


def multiplicative_defect(sigma: SoficMap, s, t) -> float:
    """Fraction of sites where sigma(st) disagrees with sigma(s)sigma(t).

    Zero means the pair (s, t) is treated perfectly multiplicatively; the
    count is exact, no sampling.
    """
    s = normalize_element(s, sigma.rank)
    t = normalize_element(t, sigma.rank)
    st = element_mul(s, t, sigma.rank)
    ps = sigma.perm(s)
    pt = sigma.perm(t)
    pst = sigma.perm(st)
    agree = int(np.count_nonzero(pst == ps[pt]))
    return (sigma.d - agree) / sigma.d


def freeness_defect(sigma: SoficMap, s, t) -> float:
    """Fraction of sites where sigma(s) and sigma(t) agree, for s != t.

    For quotient-induced maps this is 0 or 1: translations by distinct
    cosets disagree everywhere, translations by equal cosets coincide.
    """
    s = normalize_element(s, sigma.rank)
    t = normalize_element(t, sigma.rank)
    if s == t:
        raise ValueError("freeness defect requires distinct elements")
    ps = sigma.perm(s)
    pt = sigma.perm(t)
    agree = int(np.count_nonzero(ps == pt))
    return agree / sigma.d
