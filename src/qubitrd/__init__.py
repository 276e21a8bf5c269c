"""Rate-distortion toolkit for biased qubit sources.

Computes entanglement-fidelity distortion, entropy exchange, and the
entropy-distortion and rate-distortion curves of a two-level i.i.d. source,
verifies the underlying trace inequalities and block-coding bounds by
seeded Monte Carlo, and simulates the ancilla-circuit realization of the
optimal operation pair.
"""

from .errors import (
    AnnihilationError,
    ContractViolationError,
    DimensionMismatchError,
    DomainError,
    InternalNumericError,
    ShapeError,
    ToolkitError,
)
from .quantum import (
    DensityMatrix,
    KrausChannel,
    apply,
    average_entropies,
    average_entropy,
    binary_entropy,
    block_distortions,
    distortion,
    eigenvalue_entropy,
    entanglement_fidelity,
    entropy_exchange,
)
from .ratedistortion import (
    CurvePoint,
    SourceSpec,
    isotropic_s1,
    pair_channel,
    r1_curve_point,
    s1_curve_point,
    solve_alpha,
    sweep_curve,
)
from .realization import (
    RealizationCircuit,
    StreamResult,
    build_circuit,
    simulate_stream,
)
from .verify import (
    VerificationReport,
    check_lemma1,
    check_lemma2,
    check_perturbation,
    check_theorem1,
    check_theorem2_blocks,
    check_theorem3_isotropic,
    random_channel_search,
    rate_curve_interpolator,
)

__version__ = "0.1.0"
