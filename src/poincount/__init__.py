"""Exact counting of local moduli of differential-geometric structures.

The package computes, verifies and analyzes the generating functions
P(z) = sum h_k z^k whose coefficients count functionally independent
scalar differential invariants of pure order k, entirely in rational
arithmetic: a catalog of classical structures with their counting
sequences and closed forms, dimension-count plans that re-derive the
sequences from jet/symbol combinatorics, pole analysis, and a jet
prolongation engine that measures orbit codimensions of pseudogroup
actions at random rational points by exact rank.
"""

from .algebra import (
    ONE_MINUS_Z,
    PoleAtOrigin,
    Polynomial,
    RationalFunction,
    UnsupportedArgument,
    binomial,
    cyclotomic,
    cyclotomic_factors,
    poly_gcd,
)
from .analysis import PoleReport, analyze, s_sequence
from .catalog import (
    CATALOG_VERSION,
    CatalogEntry,
    NoHilbertData,
    OutOfValidity,
    UnknownEntry,
    VerificationReport,
    base_dimension,
    claimed_poincare,
    get_entry,
    hilbert_spec,
    list_entries,
    verify_all,
    verify_entry,
)
from .errors import UsageError
from .counting import (
    CountingPlan,
    InconsistentPlan,
    SHIPPED_PLANS,
    UnknownSymbol,
    assemble_hilbert,
    dim_delta,
    dim_sym,
    shipped_plan,
)
from .hilbert import (
    HilbertSpec,
    HorizonTooShort,
    NotEventuallyPolynomial,
    equal_series,
    gf_from_hilbert,
    hilbert_values_spec,
    spec_from_gf,
)
from .jetflow import (
    BadPoint,
    BadSample,
    GenericityFailure,
    InvariantViolation,
    JetSpace,
    OrderExceeded,
    Scenario,
    StratumCase,
    annihilation_check,
    distribution_example,
    get_scenario,
    lie_example_table,
    prolong,
    stratum_codim_sequence,
)

__version__ = "0.1.0"
