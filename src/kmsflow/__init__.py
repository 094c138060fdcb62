"""kmsflow: KMS-symmetric quantum Markov semigroup generators on matrix
algebras -- construction, V-transform, first-order differential calculus and
commutator representations, with machine-checkable certifications."""

from .errors import (
    CertificationFailed,
    DimensionMismatch,
    EmptyKrausList,
    GramNotPSD,
    InconsistentPsi,
    Infeasible,
    InsufficientRange,
    KmsflowError,
    NotHermitian,
    NotHermiticityPreserving,
    NotJFixed,
    NotPSD,
    PreconditionFailed,
    ReconstructionFailure,
    SchemaError,
    WrongLevel,
)
from .matrix_core import (
    DensityContext,
    eig_hermitian,
    hilbert_algebra_product,
)
from .superop import (
    ALGEBRA,
    L2,
    Superoperator,
    choi,
    from_kraus,
    is_ccn,
    is_cp,
    is_kms_symmetric,
    is_markov_l2,
    kms_adjoint,
    lmul,
    rmul,
    to_algebra,
    to_l2,
)
from .vtransform import (
    markov_preservation_check,
    v_transform,
    v_transform_cptp_certificate,
    v_transform_quadrature,
    w_transform,
)
from .generator import (
    MarkovGenerator,
    certify_generator,
    chernoff_residual,
    cone_project,
    dirichlet_contraction_check,
    dirichlet_energy,
    energy_product_inequality,
    evolve,
    generator_from_cp,
    recover_cp_from_generator,
)
from .derivation import (
    CommutatorFamily,
    FirstOrderCalculus,
    calculus_invariants_report,
    commutator_calculus,
    extract_commutators_gns,
    extract_commutators_kraus,
    gns_calculus,
    inner_vector,
    uniqueness_witness,
    verify_commutator_form,
)
from .instances import random_generator, random_instance
from .reports import Check, Report

__version__ = "0.1.0"
