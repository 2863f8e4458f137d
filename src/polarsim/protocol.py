"""Ping-pong polarization protocol with intensity and state tracking.

One transmission: Alice prepares n photons at angle theta and keeps two
hypotheses (her state rotated by 0 deg or 90 deg). Eve may siphon Alice's
photons at each channel stage and inject the same number at her own angle
phi, which keeps the intensity constant. Bob encodes his bit by rotating
everything 0 or 90 deg. Alice then reads the purity of the received density
matrix and its distances to both hypotheses off its Stokes vector, to decode
the bit or declare the eavesdropper.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .polarization import (
    DensityMatrix,
    PhotonEnsemble,
    Spectrum,
    bloch_summary,
    check_count,
    density_of_pure,
    ensemble_density,
    is_count,
    linear_stokes,
    normalize_angle,
    stokes_from_density,
    stokes_purity,
    stokes_spectrum,
    unsign_zeros,
)
from .tomography import TomographyConfig, measure, reconstruct

PROTOCOL_CSV_HEADER = (
    "decision,purity,dist_h0,dist_h90,lambda_max,principal_angle_deg,"
    "intensity_sent,intensity_after_stage1,intensity_after_stage2"
)
# (key, %-format) of each report value, in the order of the key=value block
# and of PROTOCOL_CSV_HEADER; the angle comes formatted, empty when undefined
_REPORT_FIELDS = (
    ("decision", "%s"), ("purity", "%.6f"), ("dist_h0", "%.6f"), ("dist_h90", "%.6f"),
    ("lambda_max", "%.6f"), ("lambda_min", "%.6f"), ("principal_angle_deg", "%s"),
    ("intensity_sent", "%s"), ("intensity_after_stage1", "%s"), ("intensity_after_stage2", "%s"),
)
# a render slices off the separator each template starts with, which copies the text out of
# %'s overallocated block into one of its size; %.0s takes a value that has no CSV column
_KEY_VALUE_TEMPLATE = "".join("\n" + key + "=" + fmt for key, fmt in _REPORT_FIELDS)
_CSV_TEMPLATE = "".join(("," + fmt if key in PROTOCOL_CSV_HEADER.split(",") else "%.0s")
                        for key, fmt in _REPORT_FIELDS)


class Decision(enum.Enum):
    BIT0 = "Bit0"
    BIT1 = "Bit1"
    EVE_DETECTED = "EveDetected"


# exact-mode thresholds, and the floors of the sampled-mode ones
EXACT_EPS_DISTANCE = 1e-9
EXACT_EPS_PURITY = 1e-6


def _siphon_error(siphon, available) -> ValueError:
    return ValueError(
        f"siphon count {siphon} exceeds the {available} untouched photons available at this stage"
    )


@dataclass(frozen=True)
class EveConfig:
    siphon_stage1: int = 0
    siphon_stage2: int = 0
    injection_angle_deg: float = 0.0
    enabled: bool = False

    def __post_init__(self) -> None:
        s1 = check_count(self.siphon_stage1, "siphon counts must be integers")
        s2 = check_count(self.siphon_stage2, "siphon counts must be integers")
        if type(self.enabled) is not bool:
            raise ValueError(f"enabled must be a bool, got {self.enabled!r}")
        if s1 < 0 or s2 < 0:
            raise ValueError("siphon counts must be non-negative")
        if not self.enabled and (s1 or s2):
            raise ValueError("a disabled Eve siphons nothing; set enabled=True to siphon")
        phi = normalize_angle(self.injection_angle_deg)
        # a canonical value comes back as given; rewriting it would cost more than checking it
        if (s1 is not self.siphon_stage1 or s2 is not self.siphon_stage2
                or phi is not self.injection_angle_deg):
            self.__dict__.update(siphon_stage1=s1, siphon_stage2=s2, injection_angle_deg=phi)

    @classmethod
    def disabled(cls) -> "EveConfig":
        return _NO_EVE


_NO_EVE = EveConfig()  # frozen, so one instance serves every config without Eve
_DEFAULT_TOMOGRAPHY = TomographyConfig()  # frozen too, and exact mode never reads it


@dataclass(frozen=True)
class ProtocolConfig:
    n_photons: int
    alice_angle_deg: float
    bob_bit: int
    eve: EveConfig = _NO_EVE
    mode: str = "exact"
    tomography: TomographyConfig = _DEFAULT_TOMOGRAPHY

    def __post_init__(self) -> None:
        n = check_count(self.n_photons, "n_photons must be an integer")
        if n < 1:
            raise ValueError("n_photons must be positive")
        if not is_count(self.bob_bit) or self.bob_bit not in (0, 1):
            raise ValueError("bob_bit must be 0 or 1")
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        theta = normalize_angle(self.alice_angle_deg)
        if n is not self.n_photons or theta is not self.alice_angle_deg:  # as EveConfig's
            self.__dict__.update(n_photons=n, alice_angle_deg=theta)
        # Eve siphons only Alice's untouched photons (see _received_populations);
        # this is a run's siphon bound, and SweepSpec's totals keep within it
        siphon1, siphon2 = self.eve.siphon_stage1, self.eve.siphon_stage2
        if siphon1 > n:
            raise _siphon_error(siphon1, n)
        if siphon2 > n - siphon1:
            raise _siphon_error(siphon2, n - siphon1)

    def resolved_thresholds(self) -> Tuple[float, float]:
        """(epsilon_distance, epsilon_purity) for this mode.

        Sampled mode widens both to a 6-sigma-scale binomial noise floor.
        """
        if self.mode == "exact":
            return EXACT_EPS_DISTANCE, EXACT_EPS_PURITY
        noise = 6.0 / math.sqrt(self.tomography.photons_per_basis)
        return max(EXACT_EPS_DISTANCE, noise), max(EXACT_EPS_PURITY, noise)


class ProtocolOutcome(NamedTuple):
    decision: Decision
    alice_angle_deg: float
    rho_received: DensityMatrix
    purity_received: float
    dist_to_h0: float
    dist_to_h90: float
    spectrum: Spectrum
    stage_intensities: Tuple[int, int, int]  # (sent, after stage 1, after stage 2)

    @property
    def rho_hypothesis_0(self) -> DensityMatrix:
        """What Alice expects back for bit 0: her own state."""
        return density_of_pure(self.alice_angle_deg)

    @property
    def rho_hypothesis_90(self) -> DensityMatrix:
        """What Alice expects back for bit 1: her state rotated by 90 deg."""
        return density_of_pure(self.alice_angle_deg + 90.0)

    def _report_values(self) -> tuple:
        """The values of _REPORT_FIELDS, the one table both renderings read."""
        spectrum, angle = self.spectrum, self.spectrum.principal_angle_deg
        return (
            self.decision.value, self.purity_received, self.dist_to_h0, self.dist_to_h90,
            spectrum.lambda_max, spectrum.lambda_min, "" if angle is None else "%.6f" % angle,
            *self.stage_intensities,
        )

    def to_key_value_block(self) -> str:
        return unsign_zeros(_KEY_VALUE_TEMPLATE % self._report_values())[1:]

    def to_csv_row(self) -> str:
        return unsign_zeros(_CSV_TEMPLATE % self._report_values())[1:]


def _received_populations(n, theta_deg: float, bob_bit: int, siphon1, siphon2, phi_deg: float):
    """(count, angle) of the three populations Alice receives, in the order
    they joined the beam: hers, Eve's stage-1 injection, Eve's stage-2
    injection.

    Eve siphons `siphon1` of Alice's photons before Bob and `siphon2` more of
    them after him (siphoning her own injections back out gains her
    nothing), and injects as many at phi each time; Bob rotates everything at
    his station by 90 deg per bit. Alice gets back n - siphon1 - siphon2
    photons at theta + 90b, siphon1 at phi + 90b and siphon2 at phi.
    """
    rotation = 90.0 * bob_bit
    return (
        (n - siphon1 - siphon2, normalize_angle(theta_deg + rotation)),
        (siphon1, normalize_angle(phi_deg + rotation)),
        (siphon2, phi_deg),
    )


def received_stokes(n: int, theta_deg: float, bob_bit: int, siphon1, siphon2, phi_deg: float):
    """Linear Stokes components (s1, s3) of what Alice receives (see
    _received_populations). The siphon counts may be arrays, giving one
    received state per element. Callers pass checked siphons: ProtocolConfig
    bounds a run's siphons and SweepSpec a sweep's totals."""
    (na, ta), (nb, tb), (nc, tc) = _received_populations(
        n, theta_deg, bob_bit, siphon1, siphon2, phi_deg
    )
    a1, a3 = linear_stokes(ta)
    b1, b3 = linear_stokes(tb)
    c1, c3 = linear_stokes(tc)
    wa, wb, wc = na / n, nb / n, nc / n
    return wa * a1 + wb * b1 + wc * c1, wa * a3 + wb * b3 + wc * c3


def eve_detected(purity, dist_h0, dist_h90, eps_dist: float, eps_purity: float):
    """Alice's check for Eve: the received state is mixed, or far from both
    hypotheses. Written with | and &, it takes floats, or arrays elementwise."""
    return (purity < 1.0 - eps_purity) | ((dist_h0 > eps_dist) & (dist_h90 > eps_dist))


def decide(
    purity: float, dist_h0: float, dist_h90: float, eps_dist: float, eps_purity: float
) -> Decision:
    """Alice's decision on one received state: Eve if eve_detected, otherwise
    the nearer of her two hypotheses (ties go to bit 0)."""
    if eve_detected(purity, dist_h0, dist_h90, eps_dist, eps_purity):
        return Decision.EVE_DETECTED
    return Decision.BIT1 if dist_h0 > dist_h90 else Decision.BIT0


def intensity_check(stage_intensities: Tuple[int, ...]) -> bool:
    """True iff the photon count is unchanged at every recorded stage.

    The equal-count siphon-and-inject attack passes this check, which is why
    the density-matrix comparison is needed at all.
    """
    first = stage_intensities[0]
    return all(count == first for count in stage_intensities)


def _hypotheses(theta_deg: float) -> Tuple[float, float, float, float]:
    """Stokes components (h1, h3, g1, g3), in Python floats, of Alice's two
    hypotheses for her angle theta: her state and its 90 deg rotation."""
    t, u = math.radians(2.0 * theta_deg), math.radians(2.0 * normalize_angle(theta_deg + 90.0))
    return math.sin(t), math.cos(t), math.sin(u), math.cos(u)


def _outcome(config: ProtocolConfig, rho_received: DensityMatrix) -> ProtocolOutcome:
    """Alice's report, read off the Stokes vector r of the received matrix:
    purity (1 + |r|^2)/2, the Frobenius distances |r - r_h|/sqrt(2) to her
    two hypotheses and the closed-form spectrum, and her decision on them."""
    s = stokes_from_density(rho_received)
    _, s1, s2, s3 = s
    theta = config.alice_angle_deg
    h1, h3, g1, g3 = _hypotheses(theta)
    purity_received = stokes_purity(s)
    dist_h0 = math.sqrt((s1 - h1) ** 2 + s2 * s2 + (s3 - h3) ** 2) / math.sqrt(2.0)
    dist_h90 = math.sqrt((s1 - g1) ** 2 + s2 * s2 + (s3 - g3) ** 2) / math.sqrt(2.0)
    decision = decide(purity_received, dist_h0, dist_h90, *config.resolved_thresholds())
    n = config.n_photons
    # in field order, which costs less than keywords; every siphoned photon
    # is replaced, so the count never changes
    return ProtocolOutcome(decision, theta, rho_received, purity_received, dist_h0, dist_h90,
                           stokes_spectrum(s), (n, n, n))


def exact_read_out(s1, s3, theta_deg: float):
    """_outcome's read-out, elementwise, of the received states with linear
    Stokes components (s1, s3) for Alice's angle theta: their bloch_summary
    and the array of eve_detected at the exact-mode thresholds."""
    summary = bloch_summary(s1, s3)
    h1, h3, g1, g3 = _hypotheses(theta_deg)
    dist_h0 = np.hypot(s1 - h1, s3 - h3) / math.sqrt(2.0)
    dist_h90 = np.hypot(s1 - g1, s3 - g3) / math.sqrt(2.0)
    return summary, eve_detected(summary.purity, dist_h0, dist_h90,
                                 EXACT_EPS_DISTANCE, EXACT_EPS_PURITY)


def run_protocol(config: ProtocolConfig) -> ProtocolOutcome:
    """One full transmission and Alice's decision. Both modes receive the same
    populations and get one matrix from them: exact mode their density matrix,
    sampled mode the reconstruction from their measured counts. Alice reads
    out and decides on that matrix the same way in both."""
    n, eve, theta = config.n_photons, config.eve, config.alice_angle_deg
    populations = _received_populations(
        n, theta, config.bob_bit, eve.siphon_stage1, eve.siphon_stage2, eve.injection_angle_deg
    )
    if config.mode == "sampled":
        rho_received = reconstruct(measure(populations, n, config.tomography))
    else:
        # ensemble_density skips the empty populations
        rho_received = ensemble_density(PhotonEnsemble(populations))
    return _outcome(config, rho_received)
