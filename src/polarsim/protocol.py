"""Ping-pong polarization protocol with intensity and state tracking.

One transmission: Alice prepares n photons at angle theta and keeps two
hypothesis densities (rotation by 0 deg or 90 deg). Eve may siphon photons at
each channel stage and inject the same number at her own angle phi, which
keeps the intensity constant. Bob encodes his bit by rotating everything 0 or
90 deg. Alice then compares the received density matrix against both
hypotheses and its purity to decode the bit or declare the eavesdropper.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .polarization import (
    DensityMatrix,
    PhotonEnsemble,
    Spectrum,
    bloch_distance,
    bloch_summary,
    density_of_pure,
    eigendecompose,
    ensemble_density,
    linear_stokes,
    matrix_distance,
    normalize_angle,
    pure_state,
    purity,
)
from .tomography import TomographyConfig, reconstruct, sample_counts

PROTOCOL_CSV_HEADER = (
    "decision,purity,dist_h0,dist_h90,lambda_max,principal_angle_deg,"
    "intensity_sent,intensity_after_stage1,intensity_after_stage2"
)


class Decision(enum.Enum):
    BIT0 = "Bit0"
    BIT1 = "Bit1"
    EVE_DETECTED = "EveDetected"


# decision_codes returns indices into this tuple
DECISIONS = tuple(Decision)
EVE_CODE = DECISIONS.index(Decision.EVE_DETECTED)

# exact-mode thresholds, and the floors of the sampled-mode ones
EXACT_EPS_DISTANCE = 1e-9
EXACT_EPS_PURITY = 1e-6


@dataclass(frozen=True)
class EveConfig:
    siphon_stage1: int = 0
    siphon_stage2: int = 0
    injection_angle_deg: float = 0.0
    enabled: bool = False

    def __post_init__(self) -> None:
        if self.siphon_stage1 < 0 or self.siphon_stage2 < 0:
            raise ValueError("siphon counts must be non-negative")
        object.__setattr__(self, "injection_angle_deg", normalize_angle(self.injection_angle_deg))

    @classmethod
    def disabled(cls) -> "EveConfig":
        return cls()


@dataclass(frozen=True)
class ProtocolConfig:
    n_photons: int
    alice_angle_deg: float
    bob_bit: int
    eve: EveConfig = field(default_factory=EveConfig.disabled)
    mode: str = "exact"
    tomography: TomographyConfig = field(default_factory=TomographyConfig)
    epsilon_distance: Optional[float] = None  # None -> mode-dependent default
    epsilon_purity: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_photons < 1:
            raise ValueError("n_photons must be positive")
        if self.bob_bit not in (0, 1):
            raise ValueError("bob_bit must be 0 or 1")
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if self.epsilon_distance is not None and self.epsilon_distance <= 0:
            raise ValueError("epsilon_distance must be positive")
        if self.epsilon_purity is not None and not (0 < self.epsilon_purity < 1):
            raise ValueError("epsilon_purity must be in (0, 1)")
        object.__setattr__(self, "alice_angle_deg", normalize_angle(self.alice_angle_deg))

    def resolved_thresholds(self) -> Tuple[float, float]:
        """(epsilon_distance, epsilon_purity) after mode-dependent defaulting.

        Sampled mode widens both to a 6-sigma-scale binomial noise floor.
        """
        if self.mode == "exact":
            eps_d = EXACT_EPS_DISTANCE if self.epsilon_distance is None else self.epsilon_distance
            eps_p = EXACT_EPS_PURITY if self.epsilon_purity is None else self.epsilon_purity
        else:
            noise = 6.0 / math.sqrt(self.tomography.photons_per_basis)
            eps_d = (max(EXACT_EPS_DISTANCE, noise) if self.epsilon_distance is None
                     else self.epsilon_distance)
            eps_p = (max(EXACT_EPS_PURITY, noise) if self.epsilon_purity is None
                     else self.epsilon_purity)
        return eps_d, eps_p


@dataclass(frozen=True)
class ProtocolOutcome:
    decision: Decision
    rho_hypothesis_0: DensityMatrix
    rho_hypothesis_90: DensityMatrix
    rho_received: DensityMatrix
    purity_received: float
    dist_to_h0: float
    dist_to_h90: float
    spectrum: Spectrum
    stage_intensities: Tuple[int, int, int]  # (sent, after stage 1, after stage 2)

    def to_key_value_block(self) -> str:
        angle = self.spectrum.principal_angle_deg
        lines = [
            f"decision={self.decision.value}",
            f"purity={self.purity_received:.6f}",
            f"dist_h0={self.dist_to_h0:.6f}",
            f"dist_h90={self.dist_to_h90:.6f}",
            f"lambda_max={self.spectrum.lambda_max:.6f}",
            f"lambda_min={self.spectrum.lambda_min:.6f}",
            "principal_angle_deg=" + ("" if angle is None else f"{angle:.6f}"),
            f"intensity_sent={self.stage_intensities[0]}",
            f"intensity_after_stage1={self.stage_intensities[1]}",
            f"intensity_after_stage2={self.stage_intensities[2]}",
        ]
        return "\n".join(lines)

    def to_csv_row(self) -> str:
        angle = self.spectrum.principal_angle_deg
        return ",".join(
            [
                self.decision.value,
                f"{self.purity_received:.6f}",
                f"{self.dist_to_h0:.6f}",
                f"{self.dist_to_h90:.6f}",
                f"{self.spectrum.lambda_max:.6f}",
                "" if angle is None else f"{angle:.6f}",
                str(self.stage_intensities[0]),
                str(self.stage_intensities[1]),
                str(self.stage_intensities[2]),
            ]
        )


# Sampled-mode stream: (count, angle_deg, is_eve_injection) per population.
_Stream = List[Tuple[int, float, bool]]


def _eve_stage(
    stream: _Stream, siphon: int, injection_angle: float, rng: np.random.Generator
) -> None:
    """Random siphon of `siphon` photons drawn uniformly without replacement,
    then as many injected at Eve's angle."""
    if siphon == 0:
        return
    counts = [c for c, _, _ in stream]
    if siphon > sum(counts):
        raise ValueError("siphon count exceeds photons present at this stage")
    taken = rng.multivariate_hypergeometric(counts, siphon)
    stream[:] = [(c - int(r), ang, is_eve) for (c, ang, is_eve), r in zip(stream, taken)]
    stream.append((siphon, injection_angle, True))


def _stream_total(stream: _Stream) -> int:
    return sum(c for c, _, _ in stream)


def _stream_ensemble(stream: _Stream) -> PhotonEnsemble:
    return PhotonEnsemble(tuple((c, ang) for c, ang, _ in stream if c > 0))


def _check_siphon(siphon, available) -> None:
    if np.greater(siphon, available).any():
        siphon, available = np.broadcast_arrays(siphon, available)
        k = np.argmax(siphon > available)
        raise ValueError(
            f"siphon count {siphon.flat[k]} exceeds the {available.flat[k]} untouched photons "
            "available at this stage"
        )


def _received_populations(n, theta_deg: float, bob_bit: int, siphon1, siphon2, phi_deg: float):
    """(count, angle) of the three populations Alice receives in exact mode.

    Eve siphons only Alice's photons (siphoning her own injections back out
    gains her nothing), `siphon1` before Bob and `siphon2` after him, and
    injects as many at phi each time; Bob rotates everything at his station
    by 90 deg per bit. Alice gets back n - siphon1 - siphon2 photons at
    theta + 90b, siphon1 at phi + 90b and siphon2 at phi.
    """
    rotation = 90.0 * bob_bit
    return (
        (n - siphon1 - siphon2, normalize_angle(theta_deg + rotation)),
        (siphon1, normalize_angle(phi_deg + rotation)),
        (siphon2, phi_deg),
    )


def received_stokes(n: int, theta_deg: float, bob_bit: int, siphon1, siphon2, phi_deg: float):
    """Linear Stokes components (s1, s3) of what Alice receives in exact mode
    (see _received_populations). The siphon counts may be arrays, giving one
    received state per element."""
    _check_siphon(siphon1, n)
    _check_siphon(siphon2, n - siphon1)
    (na, ta), (nb, tb), (nc, tc) = _received_populations(
        n, theta_deg, bob_bit, siphon1, siphon2, phi_deg
    )
    a1, a3 = linear_stokes(ta)
    b1, b3 = linear_stokes(tb)
    c1, c3 = linear_stokes(tc)
    wa, wb, wc = na / n, nb / n, nc / n
    return wa * a1 + wb * b1 + wc * c1, wa * a3 + wb * b3 + wc * c3


def decision_codes(purity, dist_h0, dist_h90, eps_dist: float, eps_purity: float):
    """Alice's decision rule, elementwise, as indices into DECISIONS: a mixed
    state or a state far from both hypotheses means Eve; otherwise decode the
    nearer hypothesis (ties go to bit 0)."""
    eve = (purity < 1.0 - eps_purity) | ((dist_h0 > eps_dist) & (dist_h90 > eps_dist))
    return np.where(eve, EVE_CODE, dist_h0 > dist_h90)


def hypothesis_distances(s1, s3, theta_deg: float):
    """Distances of the states (s1, s3) to Alice's two hypotheses for her
    angle theta: her state and its 90 deg rotation."""
    h1, h3 = linear_stokes(theta_deg)
    g1, g3 = linear_stokes(normalize_angle(theta_deg + 90.0))
    return bloch_distance(s1, s3, h1, h3), bloch_distance(s1, s3, g1, g3)


class ExactAssessment(NamedTuple):
    """Alice's exact-mode checks, one list entry per received state; angles
    are None where the spectrum is degenerate."""

    lambda_max: List[float]
    principal_angle_deg: List[Optional[float]]
    purity: List[float]
    detected: List[bool]


def exact_assessment(s1, s3, theta_deg: float) -> ExactAssessment:
    """Alice's checks, at the exact-mode thresholds, on arrays of received
    linear Stokes components (s1, s3) for her angle theta."""
    s1, s3 = np.ravel(s1), np.ravel(s3)
    summary = bloch_summary(s1, s3)
    codes = decision_codes(
        summary.purity, *hypothesis_distances(s1, s3, theta_deg),
        EXACT_EPS_DISTANCE, EXACT_EPS_PURITY,
    )
    return ExactAssessment(
        summary.lambda_max.tolist(),
        [None if math.isnan(a) else a for a in summary.principal_angle_deg.tolist()],
        summary.purity.tolist(),
        (codes == EVE_CODE).tolist(),
    )


def decide(
    rho_received: DensityMatrix,
    rho_h0: DensityMatrix,
    rho_h90: DensityMatrix,
    eps_dist: float,
    eps_purity: float,
) -> Decision:
    """Alice's decision rule (decision_codes) on density matrices."""
    code = decision_codes(
        purity(rho_received),
        matrix_distance(rho_received, rho_h0),
        matrix_distance(rho_received, rho_h90),
        eps_dist,
        eps_purity,
    )
    return DECISIONS[int(code)]


def intensity_check(stage_intensities: Tuple[int, ...]) -> bool:
    """True iff the photon count is unchanged at every recorded stage.

    The equal-count siphon-and-inject attack passes this check, which is why
    the density-matrix comparison is needed at all.
    """
    first = stage_intensities[0]
    return all(count == first for count in stage_intensities)


def _run_exact(
    config: ProtocolConfig, rho_h0: DensityMatrix, rho_h90: DensityMatrix
) -> ProtocolOutcome:
    """Exact mode as a batch of one through the Bloch-vector kernel; the
    received density matrix is the validated view of the explicit received
    populations, and Alice decides on it with the public rule."""
    eve = config.eve
    siphons = (eve.siphon_stage1, eve.siphon_stage2) if eve.enabled else (0, 0)
    n = config.n_photons
    theta = config.alice_angle_deg
    phi = eve.injection_angle_deg
    s1, s3 = received_stokes(n, theta, config.bob_bit, *siphons, phi)
    summary = bloch_summary(s1, s3)
    dist_h0, dist_h90 = hypothesis_distances(s1, s3, theta)
    populations = _received_populations(n, theta, config.bob_bit, *siphons, phi)
    rho_received = ensemble_density(PhotonEnsemble(tuple(p for p in populations if p[0] > 0)))
    angle = summary.principal_angle_deg
    angle = None if math.isnan(angle) else float(angle)
    return ProtocolOutcome(
        decision=decide(rho_received, rho_h0, rho_h90, *config.resolved_thresholds()),
        rho_hypothesis_0=rho_h0,
        rho_hypothesis_90=rho_h90,
        rho_received=rho_received,
        purity_received=float(summary.purity),
        dist_to_h0=float(dist_h0),
        dist_to_h90=float(dist_h90),
        spectrum=Spectrum(
            float(summary.lambda_max),
            float(summary.lambda_min),
            angle,
            None if angle is None else normalize_angle(angle + 90.0),
        ),
        # every siphoned photon is replaced, so the count never changes
        stage_intensities=(n, n, n),
    )


def run_protocol(config: ProtocolConfig) -> ProtocolOutcome:
    """Execute one full transmission and Alice's final decision."""
    theta = config.alice_angle_deg
    n = config.n_photons
    rho_h0 = density_of_pure(pure_state(theta))
    rho_h90 = density_of_pure(pure_state(theta + 90.0))
    if config.mode == "exact":
        return _run_exact(config, rho_h0, rho_h90)

    rng = np.random.default_rng(config.tomography.seed)

    stream: _Stream = [(n, theta, False)]
    sent = n

    if config.eve.enabled:
        _eve_stage(stream, config.eve.siphon_stage1, config.eve.injection_angle_deg, rng)
    after_stage1 = _stream_total(stream)

    rotation = 90.0 * config.bob_bit
    stream = [(c, normalize_angle(ang + rotation), is_eve) for c, ang, is_eve in stream]

    if config.eve.enabled:
        _eve_stage(stream, config.eve.siphon_stage2, config.eve.injection_angle_deg, rng)
    after_stage2 = _stream_total(stream)

    true_density = ensemble_density(_stream_ensemble(stream))
    counts = sample_counts(true_density, config.tomography.photons_per_basis, rng)
    rho_received = reconstruct(counts)

    intensities = (sent, after_stage1, after_stage2)
    if not intensity_check(intensities):
        decision = Decision.EVE_DETECTED
    else:
        decision = decide(rho_received, rho_h0, rho_h90, *config.resolved_thresholds())

    return ProtocolOutcome(
        decision=decision,
        rho_hypothesis_0=rho_h0,
        rho_hypothesis_90=rho_h90,
        rho_received=rho_received,
        purity_received=purity(rho_received),
        dist_to_h0=matrix_distance(rho_received, rho_h0),
        dist_to_h90=matrix_distance(rho_received, rho_h90),
        spectrum=eigendecompose(rho_received),
        stage_intensities=intensities,
    )
