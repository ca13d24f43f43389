"""Exact construction, verification, and classification of the
finite-dimensional modules of a three-generator anticommutator algebra.

The package is organised in four layers:

``exactlinalg``
    Dense rational matrices and polynomials: rref, kernels, spinning,
    characteristic and minimal polynomials, rational root finding.
``bimodule``
    The two explicit module families (even and odd dimension), modules
    built from modules (sign twists, conjugates, direct sums), relation
    checking, and the pinned worked examples.
``classify``
    Irreducibility two independent ways (closed-form criterion and a
    computational oracle), isomorphism testing with explicit intertwiners,
    the lowering matrix, and identification of a module's class coordinates.
``universal``
    Ladder-basis windows of the infinite-dimensional parent module and the
    maps relating them to the finite families.

Everything is computed over the rationals; no floating point anywhere.
"""

from .bimodule import (
    ALL_TWISTS,
    BIModule,
    CertificateError,
    EvenParams,
    NotAModule,
    OddParams,
    TwistSign,
    central_scalars,
    certify_intertwiner,
    check_relations,
    conjugate,
    derive_Z,
    diagonalizability,
    direct_sum,
    even_module,
    example_even,
    example_odd,
    minimal_polynomials,
    odd_module,
    twist,
)
from .classify import (
    ClassCoordinates,
    IdentificationFailed,
    IndeterminateIrreducibility,
    IndeterminateIsomorphism,
    InvariantData,
    IrrVerdict,
    NonSplitSpectrum,
    NotRationalFamily,
    are_isomorphic,
    criterion,
    criterion_even,
    criterion_odd,
    identify,
    intertwiner_space,
    invariants,
    lowering_matrix,
    oracle_irreducible,
    orbit_canonical,
    verify_invariant_subspace,
)
from .exactlinalg import (
    Matrix,
    Poly,
    Roots,
    anticommutator,
    char_poly,
    is_squarefree,
    kernel_basis,
    min_poly,
    rat,
    rational_roots,
    rational_spectrum,
    spin,
)
from .universal import (
    AnnihilatorFails,
    PremiseViolated,
    TruncatedVerma,
    interior_relation_check,
    ladder_map,
    ladder_vector,
    truncated_verma,
    verma_quotient_check,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_TWISTS",
    "AnnihilatorFails",
    "BIModule",
    "CertificateError",
    "ClassCoordinates",
    "EvenParams",
    "IdentificationFailed",
    "IndeterminateIrreducibility",
    "IndeterminateIsomorphism",
    "InvariantData",
    "IrrVerdict",
    "Matrix",
    "NonSplitSpectrum",
    "NotAModule",
    "NotRationalFamily",
    "OddParams",
    "Poly",
    "PremiseViolated",
    "Roots",
    "TruncatedVerma",
    "TwistSign",
    "anticommutator",
    "are_isomorphic",
    "central_scalars",
    "certify_intertwiner",
    "char_poly",
    "check_relations",
    "conjugate",
    "criterion",
    "criterion_even",
    "criterion_odd",
    "derive_Z",
    "diagonalizability",
    "direct_sum",
    "even_module",
    "example_even",
    "example_odd",
    "identify",
    "interior_relation_check",
    "intertwiner_space",
    "invariants",
    "is_squarefree",
    "kernel_basis",
    "ladder_map",
    "ladder_vector",
    "lowering_matrix",
    "min_poly",
    "minimal_polynomials",
    "odd_module",
    "oracle_irreducible",
    "orbit_canonical",
    "rat",
    "rational_roots",
    "rational_spectrum",
    "spin",
    "truncated_verma",
    "twist",
    "verify_invariant_subspace",
    "verma_quotient_check",
]
