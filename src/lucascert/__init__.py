"""lucascert: holonomic power series mod p and Lucas-type algebraicity certificates.

The library reduces exact rational power series modulo primes, analyzes
their annihilating differential operators (Fuchsian structure, indicial
data, MOM at zero, p-curvature, good primes), and constructs verified
certificates f|_p(z) = A_p(z) f|_p(z^(p^l)) together with their height
bounds, at exact desk scale.
"""

from .errors import (
    BadPrime,
    HeightBoundViolated,
    LeadingZero,
    LucascertError,
    NoCycleFound,
    NotMomAtZero,
    NotPLocal,
    NotSeriesExpandable,
    ParseError,
    ReconstructionFailed,
    SylvesterSingular,
    UnknownCase,
    UnknownSeries,
    ZeroDenominator,
)
from .fields import GF, QQ, PrimeField, RationalField, is_prime, reduce_rat_mod_p
from .poly import Poly, format_poly
from .ratfun import RatFun
from .series import (
    TruncSeries,
    q_series,
    ratfun_series,
    reduce_series_mod_p,
    section_decomposition,
)
from .diffop import (
    DiffOp,
    Recurrence,
    SingularityReport,
    cleared,
    companion,
    diffop_from_json,
    diffop_from_polys,
    diffop_to_json,
    expand,
    exponents_at_zero,
    good_primes,
    indicial_at_zero,
    infinity_transform,
    is_mom,
    p_curvature,
    recurrence_from,
    reduce_op_mod_p,
    singularities,
    to_d,
    to_delta,
)
from .catalog import (
    SeqGen,
    catalog_from_json,
    catalog_to_json,
    default_catalog,
    gen_terms,
    hypergeometric_fr_operator,
    load_catalog,
    lookup,
    lucas_binom,
    p_lucas_check,
    series_mod_p,
    series_over_q,
)
from .certify import (
    Certificate,
    FrobShadow,
    OrbitReport,
    SplitWitness,
    assemble_certificate,
    cartier_row_residual,
    certificate_from_json,
    certificate_prop62,
    classify_evidence,
    frobenius_shadow,
    iterate_certificates,
    orbit_detect,
    pade_ratio,
    split_elimination,
    split_pade,
    verify_certificate,
)
from .casebook import (
    CaseResult,
    batch_report,
    case_26,
    case_210,
    case_2f1,
    case_apery_lucas,
    case_independence,
    case_ids,
    results_to_csv,
    run_case,
)

__version__ = "0.1.0"
