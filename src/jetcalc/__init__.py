"""Exact jet-space calculus and symmetry-integrability tooling for scalar
evolution equations u_t = K(x, u, ..., u_nx)."""

__version__ = "0.1.0"

from .analysis import (
    RankResult,
    ScanReport,
    ScanStep,
    check_density,
    conservation_residual,
    formal_symmetry_residual,
    formal_symmetry_scan,
    is_conserved_density,
    is_trivial_density,
    rank_of,
    reconstruct_flux,
    solve_linear_ansatz,
    symmetry_from_density,
    symmetry_residual,
)
from .calculus import (
    NEG_INF,
    EvolutionEquation,
    euler,
    formal_x_integrate,
    frechet,
    frechet_hat,
    order,
    total_t,
    total_x,
)
from .errors import (
    ConstantF,
    DivisionByZero,
    DslSyntaxError,
    ExponentOverflow,
    InconsistentJetSubstitution,
    InsufficientPrecision,
    JetCalcError,
    NotAPointFunction,
    NotConserved,
    NotQuadratic,
    RootNotInClass,
    UnsupportedEquationShape,
)
from .expr import (
    FunctionSpec,
    JetExpr,
    as_expr,
    fn,
    ln_shift,
    par,
    partial,
    partial_u_total,
    specialize_f,
    substitute,
    t,
    u,
    unk,
    x,
)
from .kawahara import (
    DensityFluxPair,
    QuadraticNormalization,
    SymmetryCharacteristic,
    TheoremReport,
    catalog,
    gke,
    linear_dependence_gate,
    normalize_quadratic_f,
    verify_catalog,
    verify_theorem,
)
from .series import PsdSeries, adjoint, commutator, compose, nth_root
