"""Operational effective temperatures for finite-dimensional quantum states."""

from .linalg import (
    BracketError,
    SolverError,
    ValidationError,
    hermitian_eig,
    partial_trace,
    tensor_product,
    trace_distance,
    trace_norm,
)
from .thermal import (
    GibbsSolveResult,
    QuantumSystem,
    gibbs_by_beta,
    gibbs_by_energy,
    t_star,
)
from .temperatures import (
    AsymptoticPair,
    AsymptoticRequest,
    EffectiveTempPair,
    ExpansionPair,
    VirtualTempSpectrum,
    asymptotic_effective,
    expansion_effective,
    hotter_than,
    single_copy_effective,
    tensor_power_effective,
    virtual_spectrum,
)
from .simplex import InfeasibleProblem, LPResult, UnboundedProblem, solve_lp
from .oracle import (
    GibbsStochasticLP,
    HeatOptimum,
    HeatVerdict,
    PolytopeOptimum,
    heat_sign_oracle,
    max_energy_gain,
)
from .catalysis import (
    CatalysisResult,
    JCConfig,
    QutritCatalystSetup,
    TimeSeriesResult,
    jc_hamiltonian,
    qutrit_catalyst_protocol,
    run_time_series,
    solve_catalyst_fixed_point,
    tune_catalyst,
)

__version__ = "0.1.0"
