"""qgrass: graded Grassmann algebra engine for entangled-state synthesis.

Builds Z_n-graded Grassmann algebras with Berezin integration, couples
them to multi-qudit kets, and solves for the weight functions that turn
products of coherent / squeezed states into entangled target states.
"""

from .algebra import (
    AlgebraContext,
    AlgebraElement,
    Monomial,
    MONOMIAL_ONE,
    PhaseTable,
    Variable,
    parse_variable,
    q_power,
)
from .qstate import (
    BasisKet,
    ClosureReport,
    GradedState,
    GrassmannResidueError,
    LadderSet,
    LevelSpace,
    PlainState,
    apply_annihilation,
    check_squeeze_closure,
    check_su_q2_closure,
    coherent_state,
    eigenstate_check,
    nilpotent_polynomial_state,
    q_commutator,
    squeezed_state_exp,
    squeezed_state_symmetric,
    tensor,
)
from .entangle import (
    DensityMatrix,
    EntanglementReport,
    IntegralSpec,
    WeightSolution,
    apply_weight_and_integrate,
    bipartition_spectrum,
    is_maximally_entangled,
    purity_linear,
    purity_viola,
    reduced_density,
    schmidt_rank,
    solve_weight,
)
from .catalog import ConstructionResult, catalog_construct, catalog_ids

__version__ = "0.1.0"
