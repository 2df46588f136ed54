"""Exact computational algebra for fractional factorial experiments.

Design ideals and reduced Groebner bases, confounding via ideal membership,
indicator functions and design classification, Markov bases for covariate
matrices, and Metropolis-Hastings conditional goodness-of-fit tests.
"""

__version__ = "0.1.0"

from .cyclotomic import QQ, CyclotomicNumber, cyclotomic_field, embed, omega
from .designs import (
    Design,
    Word,
    alias_table,
    design_ideal,
    est_monomials,
    full_factorial,
    is_confounded,
    parse_design,
    format_design,
    regular_design_from_words,
)
from .doptimal import SearchSpec, SearchResult, d_criterion, d_optimal_search
from .covariates import CovariateMatrix, build_covariate_matrix, recode_integer
from .errors import (
    AlgdoeError,
    BudgetError,
    CoefficientFieldError,
    DimensionError,
    EstimabilityError,
    GlmConvergenceError,
    InputError,
    InvalidIndicatorError,
    NonZeroDimensionalError,
    RankError,
    ScaleError,
    ZeroPolynomialError,
)
from .glm import GlmFit, fit_null_glm, test_statistic
from .groebner import (
    Budget,
    GroebnerBasis,
    buchberger,
    ideal_membership,
    normal_form,
    point_ideal_intersection,
    reduce_basis,
    s_polynomial,
    standard_monomials,
)
from .indicators import (
    DesignClass,
    FactorRelation,
    IndicatorFunction,
    classify_design,
    design_from_indicator,
    indicator_add_factors,
    indicator_from_design,
)
from .markov import MarkovBasis, enumerate_fiber, fiber_connected, markov_basis
from .mcmc import ChainConfig, TestResult, exact_p_value, fiber_distribution, mh_sample
from .orders import TermOrder
from .polynomials import PolyRing, Polynomial

from types import ModuleType as _ModuleType

# the imports above also bind each submodule here; the submodules are no part
# of the API
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
