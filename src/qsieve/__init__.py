"""Classification of pure open-system states by predictability.

Linear-entropy production, the isometric-sweeping split of the dynamical
semigroup, and the resulting robust / classical / quasi-classical state sets,
with the toy, pointer, quantum-Brownian-motion, GRW and Davies generator
families built in.
"""
from .operators import (
    DegenerateInputError,
    DimensionMismatchError,
    ValidationError,
    fidelity,
    hs_inner,
    hs_norm,
    join_projectors,
    linear_entropy,
    normalize_state,
    projector,
    state_from_projector,
    superposition,
    trace_norm,
    validate_density_matrix,
)
from .liouville import (
    EisReport,
    LindbladGenerator,
    apply_generator,
    apply_generator_adjoint,
    build_superoperator,
    choi_matrix,
    eis_check,
    evolve,
    propagator,
)
from .sieve import (
    SieveReport,
    lambda_gradient,
    lambda_pure,
    level_set_probe,
    minimize_lambda,
    quasi_classical_test,
    superposition_grid,
    time_averaged_linear_entropy,
)
from .decomposition import (
    ClassicalSet,
    DefectivePeripheralSpectrumError,
    RobustnessReport,
    SpectralSplit,
    classical_states,
    iso_membership,
    robustness_probe,
    spectral_split,
    verify_split_properties,
)
from .models import (
    DiscQuadrature,
    davies_model,
    disc_quadrature,
    grw_model,
    nearest_su11_coherent,
    pointer_model,
    position_operator,
    qbm_model,
    squeezed_vacuum,
    su11_coherent_state,
    toy_model,
)

__version__ = "0.1.0"
