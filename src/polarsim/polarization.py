"""Linear-polarization qubit kernel: pure-state projectors, density operators,
mixtures, Stokes coordinates, and closed-form 2x2 eigendecomposition, plus
the elementwise Bloch-vector kernel that the exact-mode sweeps run on.

Everything here is an exact, deterministic function of its inputs. Angles are
degrees throughout, canonicalized to [0, 180) because a linear polarization at
theta and theta + 180 deg is the same physical state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Tuple

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
DEGENERACY_TOL = 1e-9

# the largest photon count numpy's int64 draws and arrays hold
INT64_MAX = int(np.iinfo(np.int64).max)


def is_count(value) -> bool:
    """True iff value is a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True iff value is a Python or numpy int or float; a bool is not a real number."""
    return isinstance(value, (float, np.floating)) or is_count(value)


def check_count(value, message: str) -> int:
    """value as a Python int; raise ValueError(f"{message}, got {value!r}") unless is_count."""
    if type(value) is int:  # configs are built per protocol run: a plain int returns here
        return value
    if not is_count(value):
        raise ValueError(f"{message}, got {value!r}")
    return int(value)


def normalize_angle(raw_degrees: float) -> float:
    """Reduce an angle in degrees to [0, 180), refusing one not is_real or not finite;
    a float strictly inside (0, 180) returns unchanged, and -0.0 becomes 0.0."""
    if type(raw_degrees) is float and 0.0 < raw_degrees < 180.0:
        return raw_degrees
    if type(raw_degrees) is not float and not is_real(raw_degrees):  # a float skips the call
        raise ValueError(f"polarization angle must be a real number, got {raw_degrees!r}")
    if not math.isfinite(raw_degrees):
        raise ValueError(f"polarization angle must be finite, got {raw_degrees!r}")
    reduced = raw_degrees % 180.0
    if reduced >= 180.0:  # guard against float roundup at the boundary
        reduced = 0.0
    return reduced


class StokesVector(NamedTuple):
    s0: float
    s1: float
    s2: float
    s3: float


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 Hermitian, unit-trace, positive-semidefinite operator.

    Invariants are enforced at construction; the wrapped array is read-only.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        # the checks run on Python complex numbers, cheaper than numpy scalars
        (m00, m01), (m10, m11) = m.tolist()
        if not all(map(cmath.isfinite, (m00, m01, m10, m11))):
            raise ValueError("density matrix entries must be finite")
        if abs(m01 - m10.conjugate()) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(m00.imag) > HERMITICITY_TOL or abs(m11.imag) > HERMITICITY_TOL:
            raise ValueError("density matrix diagonal must be real")
        trace = m00.real + m11.real
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace must be 1, got {trace}")
        lmin = _eigvals_2x2(m00.real, m01, m11.real)[1]
        if lmin < -PSD_TOL:
            raise ValueError(f"density matrix is not positive semidefinite (min eigenvalue {lmin})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


class Spectrum(NamedTuple):
    """Eigen-decomposition of a density matrix, read as intensities plus the
    principal polarization axis; the other axis is 90 deg from it. The angle
    is None when the spectrum is degenerate (eigenvectors are arbitrary there)."""

    lambda_max: float
    lambda_min: float
    principal_angle_deg: Optional[float]


@dataclass(frozen=True)
class PhotonEnsemble:
    """Weighted collection of linear-polarization components; the ground
    truth a simulation evolves. Counts are exact integers."""

    components: Tuple[Tuple[int, float], ...]

    def __post_init__(self) -> None:
        canonical = []
        for count, angle in self.components:
            count = check_count(count, "photon counts must be integers")
            if count < 0:
                raise ValueError(f"photon counts must be non-negative, got {count}")
            canonical.append((count, normalize_angle(angle)))
        object.__setattr__(self, "components", tuple(canonical))

    @property
    def total(self) -> int:
        return sum(count for count, _ in self.components)


def density_of_pure(angle_degrees: float) -> DensityMatrix:
    """Projector |psi><psi| of the linear polarization psi = (cos t, sin t)
    at the angle t, reduced by normalize_angle."""
    theta = math.radians(normalize_angle(angle_degrees))
    a0, a1 = math.cos(theta), math.sin(theta)
    m01 = a0 * a1
    return DensityMatrix(np.array([[a0 * a0, m01], [m01, a1 * a1]], dtype=complex))


def mixture_entries(
    components: Iterable[Tuple[int, float]], total: int
) -> Tuple[float, float, float]:
    """Real entries (m00, m01, m11) of sum_i (count_i / total) |psi_i><psi_i|
    over linear-polarization components (count, angle), summed in component
    order and skipping empty components: the one composition of a photon
    mixture, which ensemble_density and sampled mode's Born probabilities
    both read, so the two give the same floats."""
    if total <= 0:
        raise ValueError("ensemble has no photons")
    m00 = m01 = m11 = 0.0
    for count, angle in components:
        if count == 0:
            continue
        theta = math.radians(normalize_angle(angle))
        a0, a1 = math.cos(theta), math.sin(theta)
        weight = count / total
        m00 += weight * (a0 * a0)
        m01 += weight * (a0 * a1)
        m11 += weight * (a1 * a1)
    return m00, m01, m11


def ensemble_density(ens: PhotonEnsemble) -> DensityMatrix:
    """Convex combination sum_i p_i |psi_i><psi_i| with p_i = count_i / total."""
    m00, m01, m11 = mixture_entries(ens.components, ens.total)
    return DensityMatrix(((m00, m01), (m01, m11)))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), in [0.5, 1] for a qubit; 1 iff pure: the matrix-path
    reference that tests compare stokes_purity with and the benchmark tracer
    names."""
    m00, m01, m10, m11 = rho.matrix.ravel().tolist()
    return (m00 * m00 + m01 * m10 + m10 * m01 + m11 * m11).real


def stokes_from_density(rho: DensityMatrix) -> StokesVector:
    """Stokes parameters S_i = Tr(sigma_i rho).

    Basis assignment: S1 <-> D/A (off-diagonal real), S2 <-> R/L (imaginary
    part), S3 <-> H/V (diagonal).
    """
    m00, m01, m10, m11 = rho.matrix.ravel().tolist()
    return StokesVector(
        s0=(m00 + m11).real,
        s1=2.0 * m01.real,
        s2=2.0 * m10.imag,
        s3=(m00 - m11).real,
    )


def stokes_matrix(s: StokesVector) -> tuple:
    """Unvalidated entries ((m00, m01), (m10, m11)) of (1/2) sum_i S_i sigma_i."""
    return ((0.5 * (s.s0 + s.s3), 0.5 * (s.s1 - 1j * s.s2)),
            (0.5 * (s.s1 + 1j * s.s2), 0.5 * (s.s0 - s.s3)))


def outside_poincare_sphere(s: StokesVector) -> bool:
    """DensityMatrix's positivity rule on stokes_matrix(s): its smaller
    closed-form eigenvalue, from the same entries in Python numbers, is below
    -PSD_TOL (about |r| > 1 + 2 PSD_TOL)."""
    s0, s1, s2, s3 = s
    lmin = _eigvals_2x2(0.5 * (s0 + s3), complex(0.5 * s1, -0.5 * s2), 0.5 * (s0 - s3))[1]
    return lmin < -PSD_TOL


def density_from_stokes(s: StokesVector) -> DensityMatrix:
    """Inverse of stokes_from_density: rho = (1/2) sum_i S_i sigma_i.

    Rejects Stokes vectors outside the Poincare unit ball (non-physical), by
    DensityMatrix's own positivity rule on the matrix built.
    """
    if outside_poincare_sphere(s):
        norm = math.sqrt(s.s1 * s.s1 + s.s2 * s.s2 + s.s3 * s.s3)
        raise ValueError(f"Stokes vector outside the Poincare sphere: |s| = {norm}")
    return DensityMatrix(stokes_matrix(s))


def _eigvals_2x2(m00: float, m01: complex, m11: float) -> Tuple[float, float]:
    """Closed-form eigenvalues, descending, of the 2x2 Hermitian matrix with
    real diagonal (m00, m11) and upper off-diagonal entry m01."""
    half_trace = 0.5 * (m00 + m11)
    radius = math.hypot(0.5 * (m00 - m11), abs(m01))
    return half_trace + radius, half_trace - radius


def eigendecompose(rho: DensityMatrix) -> Spectrum:
    """Closed-form spectral decomposition.

    Eigenvalues are the component intensities; the principal eigenvector's
    angle is its polarization axis, sign-normalized so the first nonzero
    component is positive and reduced to [0, 180).
    """
    m00, c, _, m11 = rho.matrix.ravel().tolist()
    a, d = m00.real, m11.real
    lmax, lmin = _eigvals_2x2(a, c, d)
    if lmax - lmin < DEGENERACY_TOL:
        return Spectrum(lmax, lmin, None)

    if abs(c) < 1e-300:
        principal = 0.0 if a >= d else 90.0
    else:
        # eigenvector for lmax is (c, lmax - a); rotate the global phase so the
        # first component is real and positive before reading off the angle.
        # v1 is the real part of (lmax - a) conj(c) / |c|, with the division
        # rounded as numpy's complex division rounds it: times 1 / |c|
        v1 = (lmax - a) * (c.real * (1.0 / abs(c)))
        principal = normalize_angle(math.degrees(math.atan2(v1, abs(c))))
    return Spectrum(lmax, lmin, principal)


def stokes_purity(s: StokesVector) -> float:
    """tr(rho^2) = (1 + |r|^2)/2 of the state with Stokes vector s,
    r = (s1, s2, s3)."""
    _, s1, s2, s3 = s
    return 0.5 * (1.0 + s1 * s1 + s2 * s2 + s3 * s3)


def stokes_spectrum(s: StokesVector) -> Spectrum:
    """Closed-form eigendecomposition of the state with Stokes vector s,
    r = |(s1, s2, s3)|: eigenvalues (1 +- r)/2, and the principal angle that
    eigendecompose reads off the matrix, atan2((r - s3) s1, s1^2 + s2^2) in
    degrees (0 for H, 90 for V); angles are None when r < DEGENERACY_TOL."""
    norm = math.sqrt(s.s1 * s.s1 + s.s2 * s.s2 + s.s3 * s.s3)
    lmax, lmin = 0.5 * (1.0 + norm), 0.5 * (1.0 - norm)
    if norm < DEGENERACY_TOL:
        return Spectrum(lmax, lmin, None)
    transverse = s.s1 * s.s1 + s.s2 * s.s2
    if transverse == 0.0:
        principal = 0.0 if s.s3 >= 0.0 else 90.0
    else:
        principal = normalize_angle(math.degrees(math.atan2((norm - s.s3) * s.s1, transverse)))
    return Spectrum(lmax, lmin, principal)


def matrix_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Frobenius distance between two density matrices: the matrix-path
    reference that tests compare the protocol's Stokes distances with and the
    benchmark tracer names."""
    entries = zip(a.matrix.ravel().tolist(), b.matrix.ravel().tolist())
    return math.hypot(*[abs(x - y) for x, y in entries])


# Bloch-vector kernel. A linear polarization at angle t has the real Stokes
# vector (sin 2t, 0, cos 2t), and a mixture has the weighted mean of its
# components' vectors, so every exact-mode quantity is a closed form on the
# two components (s1, s3). The functions below are elementwise: scalars give
# scalars, arrays give arrays of the same shape, with no Python loop.


class BlochSummary(NamedTuple):
    """Closed-form spectrum of the states with linear Stokes components
    (s1, s3), r = |(s1, s3)|: purity (1 + r^2)/2, eigenvalues (1 +- r)/2, and
    the principal axis atan2(s1, s3)/2 mod 180, which is NaN where the
    spectrum is degenerate (r < DEGENERACY_TOL)."""

    purity: np.ndarray
    lambda_max: np.ndarray
    lambda_min: np.ndarray
    principal_angle_deg: np.ndarray


def linear_stokes(angle_degrees):
    """Stokes components (s1, s3) of linear polarizations at angles already
    reduced to [0, 180); s2 is zero for every linear state."""
    t = np.radians(2.0 * angle_degrees)
    return np.sin(t), np.cos(t)


def bloch_summary(s1, s3) -> BlochSummary:
    """Spectrum of the states (s1, s3); rejects non-finite components and
    states outside the Poincare sphere, by DensityMatrix's positivity rule on
    the closed-form eigenvalue: lambda_min below -PSD_TOL."""
    r2 = s1 * s1 + s3 * s3
    # ufuncs return numpy scalars or arrays, whose .all()/.any() cost less
    # than np.all/np.any on a batch of one
    if not np.isfinite(r2).all():
        raise ValueError("Stokes components must be finite")
    norm = np.hypot(s1, s3)
    lambda_min = 0.5 * (1.0 - norm)
    if np.less(lambda_min, -PSD_TOL).any():
        raise ValueError(f"Stokes vector outside the Poincare sphere: |s| = {np.max(norm)}")
    # a tiny negative angle rounds up to 180 under the first %; the second
    # maps that to 0 and leaves every angle in [0, 180) unchanged
    angle = np.degrees(np.arctan2(s1, s3)) / 2.0 % 180.0 % 180.0
    angle = np.where(norm < DEGENERACY_TOL, np.nan, angle)
    return BlochSummary(0.5 * (1.0 + r2), 0.5 * (1.0 + norm), lambda_min, angle)


def unsign_zeros(text: str) -> str:
    """Six-decimal text with each -0.000000 written 0.000000; exact, as a
    six-decimal value that starts with -0.000000 is that value."""
    return text.replace("-0.000000", "0.000000")


def format_decimal(x: float) -> str:
    """Six decimals; a value that rounds to zero prints without a sign."""
    return unsign_zeros(f"{x:.6f}")


def report_line(key: str, value: Optional[float]) -> str:
    """key=value with format_decimal; None (an undefined angle) prints empty."""
    return key + "=" + ("" if value is None else format_decimal(value))


def render_matrix(rho: DensityMatrix) -> str:
    """Row-major fixed-point text rendering for CLI output."""
    rows = [", ".join(format_decimal(z.real) + (f"{z.imag:+.6f}j" if abs(z.imag) > 5e-7 else "")
                      for z in row) for row in rho.matrix.tolist()]
    return "[[" + "], [".join(rows) + "]]"
