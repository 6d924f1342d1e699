"""Entropy of algebraic actions over finite quotients.

The package computes, exactly where the mathematics is exact:

* entropy convergence traces h_n = log|Fix| / |G/G_n| of principal
  algebraic actions: exact fixed-point counts on the rank-1 tori by a
  resultant with x^n - 1 mod p, with no prime, where that is priced cheaper;
  elsewhere by one split over an abelian
  subgroup (the whole group on a torus quotient, one grown greedily on an
  explicit one), one block per orbit of characters, evaluated modulo primes
  below 2^31 and lifted by CRT; its one elimination gives both the
  determinant and the rank, each block's rank certified by a norm bound,
  hence the nullity of a singular quotient;
* independent spectral reference values (Mahler measures via Jensen's
  formula and torus quadrature) together with torus invertibility
  certificates;
* homomorphism-counting entropy of subshifts of finite type over sofic
  approximations: one table over the cyclic quotients Z/n, by the
  recurrence of a truncated polynomial transfer matrix's traces on the
  higher-block presentation for any window, or by enumeration where that
  is estimated cheaper; and one budgeted exhaustive count over any sofic map;
* multiplicativity and freeness defects of sofic maps.
"""

from .groups import (
    ExplicitQuotient,
    GroupRingElement,
    ParseError,
    ResourceGuardError,
    SoficMap,
    TorusQuotient,
    freeness_defect,
    involution,
    left_translate,
    multiplicative_defect,
    parse_laurent,
    parse_word,
    sofic_map_from_quotient,
    torus_quotient,
)
from .algebraic import (
    EntropyTrace,
    SolutionCount,
    entropy_trace,
    fix_count,
    log_big_int,
)
from .spectral import (
    InvertibilityCertificate,
    MahlerEstimate,
    NearZeroError,
    certify_invertible_torus,
    mahler_jensen,
    mahler_quadrature,
)
from .subshift import (
    SubshiftEntropyTable,
    SubshiftSFT,
    full_shift,
    golden_mean,
    hom_count_exact,
    subshift_entropy_table,
)

__version__ = "0.1.0"

__all__ = [
    "ExplicitQuotient",
    "GroupRingElement",
    "ParseError",
    "ResourceGuardError",
    "SoficMap",
    "TorusQuotient",
    "freeness_defect",
    "involution",
    "left_translate",
    "multiplicative_defect",
    "parse_laurent",
    "parse_word",
    "sofic_map_from_quotient",
    "torus_quotient",
    "EntropyTrace",
    "SolutionCount",
    "entropy_trace",
    "fix_count",
    "log_big_int",
    "InvertibilityCertificate",
    "MahlerEstimate",
    "NearZeroError",
    "certify_invertible_torus",
    "mahler_jensen",
    "mahler_quadrature",
    "SubshiftEntropyTable",
    "SubshiftSFT",
    "full_shift",
    "golden_mean",
    "hom_count_exact",
    "subshift_entropy_table",
    "__version__",
]
