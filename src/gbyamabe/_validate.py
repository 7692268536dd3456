"""The argument rules every module shares, each stated once: integers and
counts (bools refused), finite positive numbers (steps, radii, thresholds,
solver tolerances), finite non-negative verification tolerances, finite
nonzero curvatures, and curvatures whose closed forms (a coefficient times
a power of the curvature) stay finite. Each raises
ValueError naming the argument."""

import math
import numbers


def check_integer(name: str, value) -> int:
    """value as an int, refusing bools and non-integers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_count(name: str, value, least: int) -> int:
    """value as an int of at least `least`."""
    value = check_integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def check_positive(name: str, value: float):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def check_nonzero(name: str, value: float):
    """A curvature: finite, then nonzero."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value == 0:
        raise ValueError(f"{name} must be nonzero")


def check_power(name: str, value: float, k: int, coefficient: float = 1) -> float:
    """coefficient * float(value) ** k, a closed form that scales with the
    k-th power of a curvature: refuses the curvature when its power, or the
    power times the coefficient (an integer or a float), is not a finite
    float."""
    try:
        power = float(value) ** k
    except OverflowError:
        power = math.inf
    if not math.isfinite(power):
        raise ValueError(f"{name} {value} overflows when raised to the power {k}")
    try:
        scaled = coefficient * power
    except OverflowError:
        scaled = math.inf
    if not math.isfinite(scaled):
        raise ValueError(f"{name} {value} overflows when its power {k} is scaled by a closed-form coefficient")
    return scaled


def check_tolerance(name: str, value: float):
    """A verification tolerance: finite and non-negative (0 asks for exact
    agreement)."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value}")
