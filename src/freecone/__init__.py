"""Exact matroid computations around the free multiple cone.

Matroids are handled through their cyclic flats (the Z-axioms); the cone
construction, its three deletion variants, the invariant stack (G-invariant,
catenary data, Tutte polynomial, size-rank-coloop counts, configuration),
the transfer formulas that compute cone invariants from source data alone,
and reconstruction of the source from a cone configuration all live here.
"""

from .cone import (
    ConeMatroid,
    VariantKind,
    free_m_cone,
    higgs_lift,
    variant,
)
from .core import (
    Matroid,
    from_bases,
    from_cyclic_flats,
    is_isomorphic,
    matroid_from_rank_oracle,
)
from .errors import (
    AxiomViolation,
    GroundSetTooLarge,
    InconsistentSystem,
    MalformedCatenary,
    MalformedSrc,
    MatroidError,
    NotABasisSystem,
    NotAConeConfiguration,
    ParseError,
    SourceHasLoops,
    ValidationError,
)
from .invariants import (
    CatenaryData,
    GInvariant,
    SrcData,
    TuttePolynomial,
    catenary_data,
    characteristic,
    g_invariant,
    src_data,
    src_from_g,
    tutte,
    tutte_from_size_rank,
)
from .transfer import (
    CertificateReport,
    catenary_of_cone,
    certify_pair,
    reconstruct_from_cone_config,
    tutte_of_cone_from_src,
)
from .zlattice import (
    Configuration,
    ValidationReport,
    configuration,
    validate_axioms,
)

__version__ = "0.1.0"

__all__ = [
    "Matroid",
    "from_cyclic_flats",
    "from_bases",
    "matroid_from_rank_oracle",
    "is_isomorphic",
    "validate_axioms",
    "configuration",
    "Configuration",
    "ValidationReport",
    "GInvariant",
    "CatenaryData",
    "TuttePolynomial",
    "SrcData",
    "g_invariant",
    "catenary_data",
    "tutte",
    "tutte_from_size_rank",
    "characteristic",
    "src_data",
    "ConeMatroid",
    "VariantKind",
    "free_m_cone",
    "variant",
    "higgs_lift",
    "catenary_of_cone",
    "tutte_of_cone_from_src",
    "src_from_g",
    "reconstruct_from_cone_config",
    "certify_pair",
    "CertificateReport",
    "MatroidError",
    "AxiomViolation",
    "NotABasisSystem",
    "GroundSetTooLarge",
    "SourceHasLoops",
    "MalformedCatenary",
    "MalformedSrc",
    "InconsistentSystem",
    "NotAConeConfiguration",
    "ParseError",
    "ValidationError",
    "__version__",
]
