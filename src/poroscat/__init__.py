"""Poroelastic near-field scattering synthesis and sampling-method imaging."""

from .errors import (
    CompatibilityError,
    ConditioningError,
    DegenerateContactError,
    DispersionDegeneracyError,
    DomainError,
    GeometryError,
    NumericalError,
    PoroscatError,
    SingularityError,
    ValidationError,
)
from .forward import (
    ScatteringMatrix,
    assemble_lambda,
    check_admissibility,
    inject_noise,
    load_matrix,
    save_matrix,
)
from .greens import (
    GreenTensor,
    TraceKernel,
    dislocation_trace_kernel,
    green_tensor,
    trace_kernel,
)
from .inversion import (
    IndicatorMap,
    TrialPattern,
    glsm_solve,
    indicator_map,
    lambda_sharp,
    load_indicator_map,
    morozov_eta,
    save_indicator_map,
    tikhonov_solve,
    trial_pattern,
)
from .material import (
    DimensionalMaterial,
    MaterialParams,
    ReferenceScales,
    WaveState,
    compute_gamma,
    nondimensionalize,
    solve_dispersion,
)
from .scene import (
    ContactParams,
    FracturePatch,
    SamplingGrid,
    Scene,
    SensingGrid,
    build_fracture_patch,
    build_sampling_grid,
    build_sensing_grid,
)

__version__ = "0.1.0"
