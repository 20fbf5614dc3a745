"""Exact and numeric evaluation of compact-group characters, coadjoint-orbit
Fourier transforms, and the torus characters of the representations dual to
them under the four compact dual pairs."""

from .errors import (
    CapExceeded,
    FormulaInconsistency,
    HowecharError,
    NonConvergentDirection,
    NotInCorrespondence,
    NotMinimalKType,
    PoleAtPoint,
    SingularPoint,
)
from .howe import (
    CorrespondenceData,
    DualPairSpec,
    PairKind,
    SupportInterval,
    dual_pair,
    embedded_index_set,
    eta_cosets,
    kprime_weyl,
    project,
    rho_z,
    support_interval,
    validate_weight,
    z_weyl,
)
from .laurent import (
    expand_inverse_root_factor,
    level,
    partial_fraction_sum,
    series,
    series_mul,
)
from .orbits import (
    OracleEstimate,
    orbit_integral_oracle,
    rdv_fourier,
)
from .rootsys import (
    RootSystem,
    WeylElement,
    act,
    build_root_system,
    compose,
    inverse,
    rho,
    sign,
    weight,
    weyl_elements,
)
from .thetachar import (
    ThetaCharacter,
    ktype_expansion,
    normalizing_constant,
    theta_character,
    theta_eval,
    theta_numerator_form,
    theta_u1_closed,
    vandermonde_identity_check,
)
from .torus import eval_monomial, is_regular, weyl_denominator
from .weylchar import QuadratureGrid, schur_oracle, weyl_character, weyl_dimension

__version__ = "0.1.0"
