"""Confidence-interval helpers shared by the Monte Carlo and theory layers.

Convention: 99% normal-approximation intervals for means, Wilson intervals
for frequencies (their behavior near 0 matters for rare-tail estimates).
"""

import math

# norm.ppf(0.995), frozen so scipy is not needed on hot paths
Z99 = 2.5758293035489004


def wilson_interval(successes: float, trials: int, z: float = Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def wilson_halfwidth(successes: float, trials: int, z: float = 1.0) -> float:
    """Half the Wilson interval width at the given z (defaults to one SE)."""
    lo, hi = wilson_interval(successes, trials, z=z)
    return 0.5 * (hi - lo)
