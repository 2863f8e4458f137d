"""Simulated projective polarization tomography.

Measures photon populations (measure) or a density matrix in the H/V, D/A
and R/L bases via seeded binomial sampling, estimates Stokes parameters from
the counts (James, Kwiat, Munro & White, PRA 64, 052312, 2001), and
reconstructs a guaranteed-physical Stokes vector. For a qubit, clipping the
negative eigenvalue of the linear inversion and renormalizing the trace is
the projection r -> r/|r| of the Stokes vector onto the Poincare sphere
(Smolin, Gambetta & Smith, PRL 108, 070502, 2012), so reconstruction is
closed form and builds no matrix.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Tuple

import numpy as np

from .polarization import (
    INT64_MAX,
    DensityMatrix,
    StokesVector,
    check_count,
    mixture_entries,
    outside_poincare_sphere,
    stokes_from_density,
)

# identifier recorded in run metadata so outputs are reproducible across hosts
RNG_ALGORITHM = "numpy-pcg64"
# recorded beside it: numpy does not promise the binomial stream across releases (NEP 19)
NUMPY_VERSION = np.__version__

COUNTS_CSV_HEADER = "n_h,n_v,n_d,n_a,n_r,n_l"


@dataclass(frozen=True)
class TomographyConfig:
    photons_per_basis: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        photons = check_count(self.photons_per_basis, "photons_per_basis must be an integer")
        if photons < 1:
            raise ValueError("photons_per_basis must be >= 1")
        if photons > INT64_MAX:
            raise ValueError(
                "tomography draws its counts as numpy int64, so photons_per_basis must be "
                f"at most {INT64_MAX}, got {photons}"
            )
        seed = check_count(self.seed, "seed must be an integer")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        if photons is not self.photons_per_basis or seed is not self.seed:  # as EveConfig's
            self.__dict__.update(photons_per_basis=photons, seed=seed)


@dataclass(frozen=True)
class MeasurementCounts:
    """Photon counts per projector outcome across the three bases."""

    n_h: int
    n_v: int
    n_d: int
    n_a: int
    n_r: int
    n_l: int

    def __post_init__(self) -> None:
        given = (self.n_h, self.n_v, self.n_d, self.n_a, self.n_r, self.n_l)
        counts = [check_count(n, "measurement counts must be integers") for n in given]
        if min(counts) < 0:
            name = next(f.name for f, n in zip(fields(self), counts) if n < 0)
            raise ValueError(f"{name} must be non-negative")
        if any(map(operator.is_not, counts, given)):  # as the configs, write only what changed
            self.__dict__.update(zip((f.name for f in fields(self)), counts))

    def to_csv_row(self) -> str:
        return f"{self.n_h},{self.n_v},{self.n_d},{self.n_a},{self.n_r},{self.n_l}"


def clamp_probability(p: float) -> float:
    """p clipped to [0, 1], absorbing the rounding residue of a Born rule."""
    return min(1.0, max(0.0, p))


def born_probabilities(rho: DensityMatrix) -> Tuple[float, float, float, float, float, float]:
    """Projection probabilities (p_h, ..., p_l) of a matrix: the matrix-path
    reference that tests compare measure with and the benchmark tracer names."""
    s = stokes_from_density(rho)
    p_h = clamp_probability(float(rho.matrix[0, 0].real))
    p_d = clamp_probability(0.5 * (1.0 + s.s1))
    p_r = clamp_probability(0.5 * (1.0 + s.s2))
    return p_h, 1.0 - p_h, p_d, 1.0 - p_d, p_r, 1.0 - p_r


def sample_counts(
    probabilities: Tuple[float, float, float], photons_per_basis: int, rng: np.random.Generator
) -> MeasurementCounts:
    """Draw per-basis binomial counts for the Born probabilities
    (p_h, p_d, p_r) from an explicit generator.

    Basis order is fixed (H/V, D/A, R/L) so a given generator state always
    yields the same counts.
    """
    p_h, p_d, p_r = probabilities
    n = photons_per_basis
    n_h = int(rng.binomial(n, p_h))
    n_d = int(rng.binomial(n, p_d))
    n_r = int(rng.binomial(n, p_r))
    return MeasurementCounts(n_h, n - n_h, n_d, n - n_d, n_r, n - n_r)


def simulate_counts(rho: DensityMatrix, config: TomographyConfig) -> MeasurementCounts:
    """Seeded counts of a matrix, identical for the same (rho, config): the
    matrix-path reference tests compare measure with; the tracer names it."""
    p_h, _, p_d, _, p_r, _ = born_probabilities(rho)
    rng = np.random.default_rng(config.seed)
    return sample_counts((p_h, p_d, p_r), config.photons_per_basis, rng)


def _born_probabilities(populations, total: int) -> Tuple[float, float, float]:
    """(p_h, p_d, p_r) of linear populations (count, angle) totalling `total`
    photons: born_probabilities' floats, from the entries ensemble_density reads."""
    m00, m01, _ = mixture_entries(populations, total)
    return clamp_probability(m00), clamp_probability(0.5 * (1.0 + 2.0 * m01)), 0.5


def measure(populations, total: int, config: TomographyConfig) -> MeasurementCounts:
    """Seeded tomography of linear populations (count, angle) totalling `total`
    photons: simulate_counts' counts for their mixture, without its matrix."""
    rng = np.random.default_rng(config.seed)
    return sample_counts(_born_probabilities(populations, total), config.photons_per_basis, rng)


def stokes_estimate(counts: MeasurementCounts) -> StokesVector:
    """Frequency estimate of the Stokes parameters from raw counts."""
    if counts.n_h + counts.n_v == 0:
        raise ValueError("no photons recorded in the H/V basis")
    if counts.n_d + counts.n_a == 0:
        raise ValueError("no photons recorded in the D/A basis")
    if counts.n_r + counts.n_l == 0:
        raise ValueError("no photons recorded in the R/L basis")
    s1 = (counts.n_d - counts.n_a) / (counts.n_d + counts.n_a)
    s2 = (counts.n_r - counts.n_l) / (counts.n_r + counts.n_l)
    s3 = (counts.n_h - counts.n_v) / (counts.n_h + counts.n_v)
    return StokesVector(1.0, s1, s2, s3)


def reconstruct_from_stokes(s: StokesVector) -> StokesVector:
    """Physical Stokes vector from a (possibly non-physical) Stokes estimate.

    The linear inversion has eigenvalues (1 +- |r|)/2. It is kept unless
    outside_poincare_sphere, DensityMatrix's rule, refuses it; then clipping
    the smaller one to zero and renormalizing the trace leaves the pure r/|r|.
    """
    if outside_poincare_sphere(s):
        norm = math.sqrt(s.s1 * s.s1 + s.s2 * s.s2 + s.s3 * s.s3)
        s = StokesVector(1.0, s.s1 / norm, s.s2 / norm, s.s3 / norm)
    return s


def reconstruct(counts: MeasurementCounts) -> StokesVector:
    """Tomographic reconstruction: Stokes estimation plus physicality projection."""
    return reconstruct_from_stokes(stokes_estimate(counts))
