"""Rate-distortion toolkit for biased qubit sources.

Computes entanglement-fidelity distortion, entropy exchange, and the
entropy-distortion and rate-distortion curves of a two-level i.i.d. source,
verifies the underlying trace inequalities and block-coding bounds by
seeded Monte Carlo, and simulates the ancilla-circuit realization of the
optimal operation pair.

Every export resolves on first use (PEP 562): ``import qubitrd`` loads no
module of its own, and a name loads only the module that defines it. So a
CLI subcommand imports only what it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "errors",
    "linalg",
    "quantum",
    "ratedistortion",
    "realization",
    "verify",
)

# each exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "AnnihilationError",
            "ContractViolationError",
            "DimensionMismatchError",
            "DomainError",
            "InternalNumericError",
            "ShapeError",
            "ToolkitError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "DensityMatrix",
            "KrausChannel",
            "apply",
            "average_entropies",
            "average_entropy",
            "binary_entropy",
            "block_distortions",
            "distortion",
            "eigenvalue_entropy",
            "entanglement_fidelity",
            "entropy_exchange",
        ),
        "quantum",
    ),
    **dict.fromkeys(
        (
            "CurvePoint",
            "SourceSpec",
            "isotropic_s1",
            "pair_channel",
            "r1_curve_point",
            "s1_curve_point",
            "sweep_curve",
        ),
        "ratedistortion",
    ),
    **dict.fromkeys(
        ("RealizationCircuit", "StreamResult", "build_circuit", "simulate_stream"),
        "realization",
    ),
    **dict.fromkeys(
        (
            "VerificationReport",
            "check_lemma1",
            "check_lemma2",
            "check_perturbation",
            "check_theorem1",
            "check_theorem2_blocks",
            "check_theorem3_isotropic",
            "random_channel_search",
        ),
        "verify",
    ),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
