"""Simulation lab for semi-quantum private comparison protocols.

Two protocol variants (`jiang` and `improved`), the channel attacks against
them, an exact small-register quantum simulator underneath, and a Monte
Carlo harness that checks the analytic detection and leakage claims.
"""
from types import ModuleType as _ModuleType

from .qsim import (
    BellKind,
    CapacityExceeded,
    InvalidHandle,
    QsimError,
    QubitHandle,
    SameRegister,
    Simulator,
)
from .protocol import (
    AbortReason,
    Choice,
    ComparisonOutcome,
    Leg,
    MaskRecord,
    ProtocolConfig,
    RoundRecord,
    Transcript,
    TrialReport,
    ValidationError,
    Variant,
    compute_ma_jiang,
    compute_mask_improved,
    compute_r,
    run_protocol,
)
from .adversary import (
    ChannelStrategy,
    make_strategy,
)
from .harness import (
    AggregateReport,
    ExperimentSpec,
    run_experiment,
)

# Every name imported above, and nothing else, is public.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
