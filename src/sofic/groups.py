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

A finite quotient supplies coset arithmetic (cosets indexed 0..size-1) and
the left-translation permutations that make up a sofic approximation.
Torus quotients enumerate cosets in lexicographic order of their exponent
vectors, so every derived matrix and report is reproducible bit for bit.
"""

from __future__ import annotations

import math
import os
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
    "size_limit",
]

DEFAULT_SIZE_LIMIT = 10**6
SIZE_LIMIT_ENV = "SEL_MAX_DIM"

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
    """A requested object exceeds the configured size limit."""


def size_limit(override: Optional[int] = None) -> int:
    """Active size guard: explicit override, else SEL_MAX_DIM, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get(SIZE_LIMIT_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_SIZE_LIMIT


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
        if isinstance(elem, (int, np.integer)):
            return int(elem)
        if isinstance(elem, tuple) and len(elem) == 1:
            return int(elem[0])
        raise ValueError(f"rank-1 element must be an integer, got {elem!r}")
    if isinstance(elem, (int, np.integer)):
        raise ValueError(f"rank-{rank} element must be a {rank}-tuple, got {elem!r}")
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
class TorusQuotient:
    """The quotient Z^d / (n_1 Z x ... x n_d Z).

    Cosets are indexed 0..size-1 in lexicographic order of their exponent
    vectors (row-major), and coset arithmetic is componentwise modular
    addition.
    """

    moduli: tuple

    def __post_init__(self):
        moduli = tuple(int(n) for n in self.moduli)
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

    def _index_grid(self) -> np.ndarray:
        """(size, rank) array of coset exponent vectors in index order."""
        d = self.size
        idx = np.arange(d, dtype=np.int64)
        cols = []
        stride = d
        for n in self.moduli:
            stride //= n
            cols.append((idx // stride) % n)
        return np.stack(cols, axis=1)

    def coset_translation_perm(self, coset: int) -> np.ndarray:
        """Permutation k -> index(coset + k) as an int64 array."""
        grid = self._index_grid()
        shift = self.exponent(coset)
        shift = (shift,) if self.rank == 1 else shift
        out = np.zeros(self.size, dtype=np.int64)
        for col, (s, n) in enumerate(zip(shift, self.moduli)):
            out *= n
            out += (grid[:, col] + s) % n
        return out

    def translation_perm(self, elem) -> np.ndarray:
        """Left-translation permutation of an ambient element."""
        return self.coset_translation_perm(self.index(elem))


def torus_quotient(moduli: Iterable[int], limit: Optional[int] = None) -> TorusQuotient:
    """Build Z^d / prod(n_i Z), guarding against oversized quotients."""
    q = TorusQuotient(tuple(moduli))
    cap = size_limit(limit)
    if q.size > cap:
        raise ResourceGuardError(f"quotient size {q.size} exceeds limit {cap}")
    return q


class ExplicitQuotient:
    """A finite quotient given by a multiplication table and generator images.

    The table must define a group (checked on construction: Latin square,
    identity, associativity) and the generator images must generate it, so
    the induced map from words onto cosets is a surjective homomorphism.
    Ambient elements are words in the named generators.
    """

    __slots__ = ("table", "generator_images", "label", "identity_index", "_inverses")

    rank = 0

    def __init__(self, table, generator_images: Mapping[str, int], label: str = ""):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        d = table.shape[0]
        if d == 0:
            raise ValueError("empty multiplication table")
        if table.min() < 0 or table.max() >= d:
            raise ValueError("table entries must be coset indices in 0..size-1")
        self.table = table
        self.table.setflags(write=False)
        self.generator_images = {str(g): int(i) for g, i in generator_images.items()}
        for g, i in self.generator_images.items():
            if not 0 <= i < d:
                raise ValueError(f"image of generator {g!r} out of range")
        self.label = label or f"explicit({d})"
        self.identity_index = self._find_identity()
        self._inverses = self._find_inverses()
        self._check_group()
        self._check_surjective()

    @property
    def size(self) -> int:
        return int(self.table.shape[0])

    def _find_identity(self) -> int:
        d = self.size
        idx = np.arange(d, dtype=np.int64)
        for e in range(d):
            if np.array_equal(self.table[e], idx) and np.array_equal(self.table[:, e], idx):
                return e
        raise ValueError("multiplication table has no identity element")

    def _find_inverses(self) -> np.ndarray:
        d = self.size
        inv = np.full(d, -1, dtype=np.int64)
        for a in range(d):
            hits = np.nonzero(self.table[a] == self.identity_index)[0]
            if hits.size != 1 or self.table[hits[0], a] != self.identity_index:
                raise ValueError(f"element {a} has no two-sided inverse")
            inv[a] = hits[0]
        return inv

    def _check_group(self):
        t = self.table
        d = self.size
        # Latin square: every row and column is a permutation.
        idx = np.arange(d, dtype=np.int64)
        bad_rows = (np.sort(t, axis=1) != idx).any(axis=1)
        bad_cols = (np.sort(t, axis=0) != idx[:, None]).any(axis=0)
        bad = np.flatnonzero(bad_rows | bad_cols)
        if bad.size:
            a = int(bad[0])
            kind = "row" if bad_rows[a] else "column"
            raise ValueError(f"{kind} {a} of the table is not a permutation")
        # Light's test: the s with (x*s)*y == x*(s*y) for all x, y are closed
        # under products, so checking a generating set proves associativity.
        for s in self._table_generators():
            if not np.array_equal(t[t[:, s]], t[:, t[s]]):
                raise ValueError("multiplication table is not associative")

    def _table_generators(self) -> list:
        """A generating set of the table: each is the smallest element not yet
        reached by left multiplications by the earlier ones, starting from the
        identity."""
        t = self.table
        reached = np.zeros(self.size, dtype=bool)
        reached[self.identity_index] = True
        gens = []
        while not reached.all():
            gens.append(int(np.argmin(reached)))
            frontier = np.flatnonzero(reached)
            while frontier.size:
                products = np.unique(t[np.ix_(gens, frontier)])
                frontier = products[~reached[products]]
                reached[frontier] = True
        return gens

    def _check_surjective(self):
        # Closure of the generator images (and inverses) must cover the group.
        reached = {self.identity_index}
        frontier = [self.identity_index]
        gens = set(self.generator_images.values())
        gens |= {int(self._inverses[g]) for g in gens}
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = int(self.table[g, a])
                if b not in reached:
                    reached.add(b)
                    frontier.append(b)
        if len(reached) != self.size:
            raise ValueError(
                "generator images do not generate the quotient "
                f"({len(reached)} of {self.size} cosets reached)"
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

    def translation_perm(self, elem) -> np.ndarray:
        return self.coset_translation_perm(self.index(elem))

    def __repr__(self) -> str:
        return f"ExplicitQuotient(label={self.label!r}, size={self.size})"


Quotient = Union[TorusQuotient, ExplicitQuotient]


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

    def inverse_perm(self, elem) -> np.ndarray:
        p = self.perm(elem)
        inv = np.empty(self.d, dtype=np.int64)
        inv[p] = np.arange(self.d, dtype=np.int64)
        return inv

    def elements(self) -> list:
        return list(self.perms)


def sofic_map_from_quotient(q: Quotient, elems: Iterable) -> SoficMap:
    """Left-translation permutations of the listed ambient elements on G/Gn.

    The resulting map is a genuine homomorphism on its domain, so its
    multiplicative defects vanish identically.
    """
    perms = {}
    for elem in elems:
        key = normalize_element(elem, q.rank)
        perms[key] = q.translation_perm(key)
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
