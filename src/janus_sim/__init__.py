"""Discrete-time simulator and analysis toolkit for a dual-token soft-pegged
stablecoin with mixed crypto/RWA collateral.

Public surface: governance, peg band, reference price and the state
vector's layout (``core_state``), collateral/demand models (``market``),
protocol mechanics (``protocol``), the feedback stabilizer and equilibrium
solver (``controller``), the path engine and Monte Carlo layer
(``sim_engine``), headline metrics and risk classification (``metrics``),
config serialization (``config_io``), and the ``janus-sim`` command line
(``cli``).  The protocol state is the state vector's floats.
"""

from .config_io import (
    PRESET_NAMES,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    load_preset,
)
from .controller import (
    ControlAction,
    ControllerParams,
    EquilibriumReport,
    SolverError,
    Stability,
    classify_stability,
    control_action,
    find_fixed_point,
    jacobian_fd,
    spectral_radius,
)
from .core_state import (
    GovernanceDistribution,
    PegBand,
    ReferencePricePolicy,
    StateError,
    band_bounds,
    from_vector,
    reference_price,
    to_vector,
)
from .market import (
    AssetKind,
    AssetSpec,
    CorrelationMatrix,
    DemandParams,
    MarketError,
    book_return_factors,
    cholesky_factor,
    demand_flow,
    portfolio_variance,
)
from .metrics import (
    PonziReport,
    RiskClass,
    TrilemmaPoint,
    capital_efficiency,
    decentralization,
    failure_probability,
    inflow_dependence,
    ponzi_anchor_check,
    ponzi_report,
    ponzi_verdict,
    trilemma_point,
)
from .protocol import (
    MintPolicy,
    ProtocolError,
    collateral_ratio,
    liquidate,
    mint,
    redeem,
    skim,
)
from .sim_engine import (
    ConfigError,
    EnsembleSummary,
    FailureDef,
    InitialConditions,
    ScenarioConfig,
    SimTrace,
    StressKind,
    StressOverlay,
    frontier_sweep,
    initial_state,
    monte_carlo,
    pareto_front,
    simulate_path,
    step_map,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
