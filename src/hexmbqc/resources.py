"""Operation-count and timing arithmetic for the architecture's speed claims.

A b-bit factoring run is costed at 32*b**3 elementary operations (exact
integer arithmetic — Python ints, no overflow).  Dividing a wall-clock
target by that count gives the required per-operation time; a month is
fixed at 30.44 days.  Storage error during sequential readout is the
first-order exposure n_qubits * t_meas / T_coh.
"""

from __future__ import annotations

import math

__all__ = [
    "OPS_PER_BITCUBE",
    "MONTH_SECONDS",
    "shor_op_count",
    "required_op_time",
    "storage_error",
    "resource_report",
]

OPS_PER_BITCUBE = 32
MONTH_SECONDS = 30.44 * 86400.0  # = 2,630,016 s


def shor_op_count(bits: int) -> int:
    """32 * bits**3, exactly."""
    if not isinstance(bits, int) or isinstance(bits, bool):
        raise ValueError("bits must be an integer")
    if bits < 1:
        raise ValueError("bits must be >= 1")
    return OPS_PER_BITCUBE * bits**3


def _ratio(count: int, x: float, y: float) -> float:
    """``count * x / y`` in float arithmetic; where that passes float range,
    exactly from the numbers' integer ratios, and inf only past it."""
    try:
        if (result := count * x / y) != math.inf:
            return result
    except OverflowError:  # an int past float range
        pass
    try:
        (a, b), (c, d) = x.as_integer_ratio(), y.as_integer_ratio()
        return count * a * d / (b * c)
    except OverflowError:  # the result is past float range too
        return math.inf


def required_op_time(bits: int, wall_clock_s: float) -> float:
    """Seconds available per operation to finish within wall_clock_s."""
    if wall_clock_s <= 0:
        raise ValueError("wall clock target must be positive")
    return _ratio(1, wall_clock_s, shor_op_count(bits))


def storage_error(n_qubits: int, t_meas_s: float, t_coh_s: float) -> float:
    """Accumulated idle error while n_qubits are read out one after another."""
    if n_qubits < 0:
        raise ValueError("n_qubits must be >= 0")
    if t_meas_s < 0:
        raise ValueError("t_meas must be >= 0")
    if t_coh_s <= 0:
        raise ValueError("T_coh must be positive")
    return _ratio(n_qubits, t_meas_s, t_coh_s)


def resource_report(bits: int, wall_clock_s: float, n_qubits: int,
                    t_meas_s: float, t_coh_s: float) -> dict:
    """JSON-ready summary of all three estimates for one parameter set."""
    return {
        "schema_version": 1,
        "inputs": {
            "bits": bits,
            "wall_clock_s": wall_clock_s,
            "n_qubits": n_qubits,
            "t_meas_s": t_meas_s,
            "t_coh_s": t_coh_s,
            "month_seconds": MONTH_SECONDS,
        },
        "op_count": shor_op_count(bits),
        "required_op_time_s": required_op_time(bits, wall_clock_s),
        "storage_error": storage_error(n_qubits, t_meas_s, t_coh_s),
    }
