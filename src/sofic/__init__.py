"""Entropy of algebraic actions over finite quotients.

The package computes, exactly where the mathematics is exact:

* entropy convergence traces h_n = log|Fix| / |G/G_n| of principal
  algebraic actions: exact fixed-point counts by character products on
  torus quotients and by a split over a cyclic subgroup on explicit ones,
  each eliminated modulo primes below 2^31 and lifted by CRT, with the
  Smith normal form of the integer group-circulant matrix giving the
  nullity of a singular explicit quotient;
* independent spectral reference values (Mahler measures via Jensen's
  formula and torus quadrature) together with torus invertibility
  certificates;
* homomorphism-counting entropy of subshifts of finite type over sofic
  approximations, by powers of a truncated polynomial transfer matrix and
  budgeted exhaustive enumeration;
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
    NotInvertibleError,
    RegularRepMatrix,
    SolutionCount,
    count_solutions,
    det_abs_exact,
    entropy_trace,
    fix_count,
    fk_determinant_quotient,
    log_big_int,
    regular_rep_matrix,
    smith_normal_form,
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
    EnumerationCapError,
    HomCountReport,
    SubshiftEntropyTable,
    SubshiftSFT,
    full_shift,
    golden_mean,
    hom_count_exact,
    hom_count_full_shift,
    subshift_entropy_table,
    transfer_matrix_count,
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
    "NotInvertibleError",
    "RegularRepMatrix",
    "SolutionCount",
    "count_solutions",
    "det_abs_exact",
    "entropy_trace",
    "fix_count",
    "fk_determinant_quotient",
    "log_big_int",
    "regular_rep_matrix",
    "smith_normal_form",
    "InvertibilityCertificate",
    "MahlerEstimate",
    "NearZeroError",
    "certify_invertible_torus",
    "mahler_jensen",
    "mahler_quadrature",
    "EnumerationCapError",
    "HomCountReport",
    "SubshiftEntropyTable",
    "SubshiftSFT",
    "full_shift",
    "golden_mean",
    "hom_count_exact",
    "hom_count_full_shift",
    "subshift_entropy_table",
    "transfer_matrix_count",
    "__version__",
]
