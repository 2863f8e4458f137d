"""Independent Bloch-vector oracle for exact-mode transmissions.

A linear polarization at angle t has the real Stokes vector
(sin 2t, 0, cos 2t); a mixture is the count-weighted mean of its
components' vectors. Every quantity polarsim reports in exact mode has a
closed form on that vector r:

    purity      (1 + |r|^2) / 2
    lambda_max  (1 + |r|) / 2
    lambda_min  (1 - |r|) / 2
    angle       atan2(s1, s3) / 2  mod 180   (undefined when |r| < 1e-9)
    distance    |r_a - r_b| / sqrt(2)         (Frobenius)

This module imports nothing from polarsim, so it checks the package rather
than restating it. Thresholds are polarsim's documented exact-mode defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

EPS_DISTANCE = 1e-9
EPS_PURITY = 1e-6
DEGENERACY_TOL = 1e-9
# a value closer than this to a decision threshold may fall either way in
# floating point; the decision is then not checked
THRESHOLD_MARGIN = 1e-12
TOLERANCE = 1e-9

BIT0, BIT1, EVE = "Bit0", "Bit1", "EveDetected"


def stokes(angle_deg: float) -> Tuple[float, float]:
    """(s1, s3) of a pure linear polarization; s2 is always zero here."""
    t = math.radians(2.0 * angle_deg)
    return math.sin(t), math.cos(t)


@dataclass(frozen=True)
class Expected:
    r: Tuple[float, float]
    purity: float
    lambda_max: float
    lambda_min: float
    dist_h0: float
    dist_h90: float
    # None when a value sits within THRESHOLD_MARGIN of a decision threshold
    decision: Optional[str]
    degenerate: Optional[bool]
    intensities: Tuple[int, int, int]


def received_components(
    n: int, theta: float, bit: int, eve: bool, s1: int, s2: int, phi: float
) -> List[Tuple[int, float]]:
    """Photon populations Alice gets back in exact mode.

    Eve siphons only Alice's photons, s1 before Bob and s2 after him, and
    injects the same number at phi each time; Bob rotates everything present
    at his station by 90 deg per bit.
    """
    rotation = 90.0 * bit
    if not eve:
        return [(n, theta + rotation)]
    return [(n - s1 - s2, theta + rotation), (s1, phi + rotation), (s2, phi)]


def _decide(purity: float, d0: float, d90: float) -> Optional[str]:
    near = lambda value, threshold: abs(value - threshold) < THRESHOLD_MARGIN  # noqa: E731
    if near(purity, 1.0 - EPS_PURITY):
        return None
    if purity < 1.0 - EPS_PURITY:
        return EVE
    if near(d0, EPS_DISTANCE) or near(d90, EPS_DISTANCE):
        return None
    if d0 > EPS_DISTANCE and d90 > EPS_DISTANCE:
        return EVE
    if near(d0, d90):
        return None
    return BIT0 if d0 <= d90 else BIT1


def expect_mixture(components: List[Tuple[int, float]], theta: float) -> Expected:
    """Expected outcome for a received mixture and Alice's angle theta."""
    total = sum(c for c, _ in components)
    x = z = 0.0
    for count, angle in components:
        if count:
            sx, sz = stokes(angle)
            x += count * sx
            z += count * sz
    x, z = x / total, z / total
    norm = math.hypot(x, z)
    h0x, h0z = stokes(theta)
    purity = 0.5 * (1.0 + norm * norm)
    d0 = math.hypot(x - h0x, z - h0z) / math.sqrt(2.0)
    d90 = math.hypot(x + h0x, z + h0z) / math.sqrt(2.0)
    degenerate = None if abs(norm - DEGENERACY_TOL) < THRESHOLD_MARGIN else norm < DEGENERACY_TOL
    return Expected(
        r=(x, z),
        purity=purity,
        lambda_max=0.5 * (1.0 + norm),
        lambda_min=0.5 * (1.0 - norm),
        dist_h0=d0,
        dist_h90=d90,
        decision=_decide(purity, d0, d90),
        degenerate=degenerate,
        intensities=(total, total, total),
    )


def expect_transmission(
    n: int, theta: float, bit: int, eve: bool, s1: int, s2: int, phi: float
) -> Expected:
    return expect_mixture(received_components(n, theta, bit, eve, s1, s2, phi), theta)


def angle_mismatch(r: Tuple[float, float], angle_deg: Optional[float]) -> float:
    """Distance between r and the vector implied by a reported principal
    angle of the same length; well conditioned even when |r| is small."""
    if angle_deg is None:
        return math.inf
    sx, sz = stokes(angle_deg)
    norm = math.hypot(*r)
    return math.hypot(norm * sx - r[0], norm * sz - r[1])


def mismatches(
    expected: Expected,
    *,
    purity: float,
    lambda_max: float,
    lambda_min: float,
    angle_deg: Optional[float],
    dist_h0: float,
    dist_h90: float,
    decision: str,
    intensities: Tuple[int, ...],
) -> List[str]:
    """Names of the reported fields that disagree with the oracle."""
    bad = [
        name
        for name, got, want in (
            ("purity", purity, expected.purity),
            ("lambda_max", lambda_max, expected.lambda_max),
            ("lambda_min", lambda_min, expected.lambda_min),
            ("dist_h0", dist_h0, expected.dist_h0),
            ("dist_h90", dist_h90, expected.dist_h90),
        )
        if not abs(got - want) <= TOLERANCE
    ]
    if expected.degenerate is not None:
        if expected.degenerate != (angle_deg is None):
            bad.append("principal_angle")
        elif angle_deg is not None and not angle_mismatch(expected.r, angle_deg) <= TOLERANCE:
            bad.append("principal_angle")
    if expected.decision is not None and decision != expected.decision:
        bad.append("decision")
    if tuple(intensities) != expected.intensities:
        bad.append("intensities")
    return bad


def sampled_mismatches(*, trace: float, purity: float, lambda_max: float) -> List[str]:
    """Physical invariants any reconstructed qubit state must satisfy."""
    bad = []
    if not abs(trace - 1.0) <= TOLERANCE:
        bad.append("trace")
    if not 0.5 - TOLERANCE <= purity <= 1.0 + TOLERANCE:
        bad.append("purity")
    # lambda_max = (1 + sqrt(2 purity - 1)) / 2, squared so that a nearly
    # maximally mixed state does not amplify rounding through the root
    if not (
        lambda_max >= 0.5 - TOLERANCE
        and abs((2.0 * lambda_max - 1.0) ** 2 - (2.0 * purity - 1.0)) <= TOLERANCE
    ):
        bad.append("lambda_max")
    return bad
