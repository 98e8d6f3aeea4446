"""panelcrypt: panel econometrics engine for cryptocurrency price-risk analytics."""

__version__ = "0.1.0"

from .decentralization import composite_index, gini, orthogonalize
from .estimators import (
    CrossSectionEGLS,
    DesignMatrix,
    FitResult,
    FixedEffects,
    HausmanResult,
    ModelSpec,
    PooledOLS,
    RandomEffects,
    chi2_survival,
    hausman,
    long_run_effect,
    white_cov,
)
from .metrics import (
    amihud,
    log1p_metric,
    log_return,
    parkinson,
    realized_volatility,
    size_change,
    zscore_per_entity,
)
from .panel import (
    EntityMeta,
    PanelDataset,
    PanelLoadError,
    load_panel,
    load_panel_csv,
    write_panel_csv,
)
from .quantreg import (
    PanelQuantile,
    QuantileFit,
    hall_sheather_bandwidth,
    pseudo_r2,
    quasi_lr,
    sandwich_cov,
    sparsity_hall_sheather,
)

__all__ = [
    "__version__",
    "CrossSectionEGLS",
    "DesignMatrix",
    "EntityMeta",
    "FitResult",
    "FixedEffects",
    "HausmanResult",
    "ModelSpec",
    "PanelDataset",
    "PanelLoadError",
    "PanelQuantile",
    "PooledOLS",
    "QuantileFit",
    "RandomEffects",
    "amihud",
    "chi2_survival",
    "composite_index",
    "gini",
    "hall_sheather_bandwidth",
    "hausman",
    "load_panel",
    "load_panel_csv",
    "log1p_metric",
    "log_return",
    "long_run_effect",
    "orthogonalize",
    "parkinson",
    "pseudo_r2",
    "quasi_lr",
    "realized_volatility",
    "sandwich_cov",
    "size_change",
    "sparsity_hall_sheather",
    "white_cov",
    "write_panel_csv",
    "zscore_per_entity",
]
