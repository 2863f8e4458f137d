import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polarsim as ps
from polarsim.polarization import DensityMatrix, mixture_entries, render_matrix, stokes_spectrum

SQRT3 = math.sqrt(3.0)

# 80 photons at 30 deg mixed with 20 at 45 deg; all values frozen from direct
# convex-combination arithmetic, cross-checked against numpy.linalg.eigh
MIX_MATRIX = np.array([[0.7, 0.44641016151377546], [0.44641016151377546, 0.3]])
MIX_EIG_MAX = 0.9891646269945887
MIX_EIG_MIN = 0.010835373005411264
MIX_ANGLE = 32.933369394771965
MIX_PURITY = 0.9785640646055103


def rho(angle_deg):
    return ps.density_of_pure(angle_deg)


def random_physical_density(rng):
    """Uniform sample inside the Poincare ball, via rejection-free radius law."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    radius = rng.uniform() ** (1.0 / 3.0)
    s = radius * direction
    return ps.density_from_stokes(ps.StokesVector(1.0, s[0], s[1], s[2]))


class TestNormalizeAngle:
    @pytest.mark.parametrize(
        "raw, expected", [(30, 30), (210, 30), (-45, 135), (0, 0), (180, 0), (179.5, 179.5)]
    )
    def test_reduction(self, raw, expected):
        assert ps.normalize_angle(raw) == pytest.approx(expected)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            ps.normalize_angle(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9))
    def test_always_canonical(self, raw):
        reduced = ps.normalize_angle(raw)
        assert 0.0 <= reduced < 180.0


class TestPureState:
    # density_of_pure builds |psi><psi| from psi = (cos t, sin t): real entries
    # (cos^2 t, cos t sin t, sin^2 t), with no circular component
    def test_paper_30_degrees(self):
        (m00, m01), (m10, m11) = ps.density_of_pure(30).matrix.tolist()
        assert m00 == pytest.approx(0.75, abs=1e-12)
        assert m01 == m10 == pytest.approx(SQRT3 / 4, abs=1e-12)
        assert m11 == pytest.approx(0.25, abs=1e-12)
        assert m00.imag == m01.imag == m10.imag == m11.imag == 0.0

    def test_45_degrees(self):
        assert ps.density_of_pure(45).matrix.ravel().tolist() == pytest.approx([0.5] * 4, abs=1e-12)

    def test_basis_state(self):
        assert ps.density_of_pure(0).matrix.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    @given(st.floats(min_value=0, max_value=179.999))
    def test_normalized(self, angle):
        (m00, _), (_, m11) = ps.density_of_pure(angle).matrix.tolist()
        assert (m00 + m11).real == pytest.approx(1.0, abs=1e-12)


class TestDensityMatrix:
    def test_projector_30(self):
        m = rho(30).matrix
        expected = np.array([[0.75, SQRT3 / 4], [SQRT3 / 4, 0.25]])
        assert np.allclose(m, expected, atol=1e-12)

    def test_projector_45(self):
        assert np.allclose(rho(45).matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_projector_basis(self):
        assert np.allclose(rho(0).matrix, [[1, 0], [0, 0]], atol=1e-12)

    def test_pure_density_has_unit_purity(self):
        assert ps.purity(rho(30)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]))

    def test_rejects_non_hermitian_imaginary_part(self):
        # equal real parts; the imaginary parts must be conjugate, not equal
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1j], [0.1j, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.array([[0.7, 0.0], [0.0, 0.7]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(np.array([[1.1, 0.0], [0.0, -0.1]]))

    @pytest.mark.parametrize("matrix, message", [
        (np.eye(3) / 3.0, "must be 2x2"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "must be finite"),
        (np.array([[0.5 + 1e-3j, 0.0], [0.0, 0.5]]), "diagonal must be real"),
        (np.array([[np.inf, 0.0], [0.0, 0.0]]), "must be finite"),
        (np.array([[0.5, complex(0.1, np.nan)], [0.1, 0.5]]), "must be finite"),
    ], ids=["shape", "non-finite", "complex-diagonal", "inf-diagonal", "nan-imaginary"])
    def test_rejects_malformed_matrix(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            DensityMatrix(matrix)

    def test_matrix_is_read_only(self):
        with pytest.raises(ValueError):
            rho(30).matrix[0, 0] = 5.0


class TestEnsembleDensity:
    def test_worked_mixture(self):
        m = ps.ensemble_density(ps.PhotonEnsemble(((80, 30), (20, 45)))).matrix
        assert np.allclose(m, MIX_MATRIX, atol=1e-12)

    def test_single_component_is_pure(self):
        m = ps.ensemble_density(ps.PhotonEnsemble(((100, 30),))).matrix
        assert np.allclose(m, rho(30).matrix, atol=1e-12)

    def test_orthogonal_mixture_is_maximally_mixed(self):
        m = ps.ensemble_density(ps.PhotonEnsemble(((50, 0), (50, 90)))).matrix
        assert np.allclose(m, [[0.5, 0], [0, 0.5]], atol=1e-12)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            ps.ensemble_density(ps.PhotonEnsemble(((0, 30),)))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ps.PhotonEnsemble(((-1, 30), (2, 45)))

    def test_fractional_counts_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            ps.PhotonEnsemble(((10.5, 30),))

    @settings(max_examples=500, deadline=None)
    @given(st.floats(min_value=-720.0, max_value=720.0, exclude_min=True, exclude_max=True))
    @example(0.0)
    @example(180.0)
    @example(-0.0)
    def test_mixture_entries_reduce_only_what_needs_it(self, angle):
        # an angle takes normalize_angle's rule (a float inside (0, 180) skips
        # the reduction), and gives the floats its reduced twin gives, alone
        # or beside another component
        reduced = ps.normalize_angle(angle)
        for mix in (lambda a: ([(3, a)], 3), lambda a: ([(3, a), (0, a), (5, 45.0)], 8)):
            assert repr(mixture_entries(*mix(angle))) == repr(mixture_entries(*mix(reduced)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_mixture_entries_refuse_non_finite_angles(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            mixture_entries([(1, bad)], 1)


class TestRotateEnsemble:
    def test_spectrum_invariant_under_rotation(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            counts = rng.integers(1, 50, size=3)
            angles = rng.uniform(0, 180, size=3)
            delta = rng.uniform(-360, 360)
            e = ps.PhotonEnsemble(tuple(zip((int(c) for c in counts), angles)))
            before = ps.eigendecompose(ps.ensemble_density(e))
            after = ps.eigendecompose(ps.ensemble_density(
                ps.PhotonEnsemble(tuple((c, a + delta) for c, a in e.components))))
            assert after.lambda_max == pytest.approx(before.lambda_max, abs=1e-12)
            assert after.lambda_min == pytest.approx(before.lambda_min, abs=1e-12)


class TestPurity:
    def test_mixture(self):
        m = DensityMatrix(MIX_MATRIX)
        assert ps.purity(m) == pytest.approx(MIX_PURITY, abs=1e-12)
        # cross-check against the eigenvalue form lambda1^2 + lambda2^2
        assert ps.purity(m) == pytest.approx(MIX_EIG_MAX**2 + MIX_EIG_MIN**2, abs=1e-12)

    def test_maximally_mixed(self):
        assert ps.purity(DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.5, abs=1e-12)

    def test_purity_matches_bloch_length(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = random_physical_density(rng)
            s = ps.stokes_from_density(m)
            r2 = s.s1**2 + s.s2**2 + s.s3**2
            assert ps.purity(m) == pytest.approx((1 + r2) / 2, abs=1e-10)


class TestStokes:
    def test_diagonal_state(self):
        s = ps.stokes_from_density(DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]])))
        assert s == (1.0, 1.0, 0.0, 0.0)

    def test_basis_state(self):
        assert ps.stokes_from_density(rho(0)) == (1.0, 0.0, 0.0, 1.0)

    def test_mixture(self):
        s = ps.stokes_from_density(DensityMatrix(MIX_MATRIX))
        assert s.s1 == pytest.approx(2 * 0.44641016151377546, abs=1e-12)
        assert s.s2 == pytest.approx(0.0, abs=1e-12)
        assert s.s3 == pytest.approx(0.4, abs=1e-12)

    def test_inverse_examples(self):
        m = ps.density_from_stokes(ps.StokesVector(1, 1, 0, 0)).matrix
        assert np.allclose(m, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
        m = ps.density_from_stokes(ps.StokesVector(1, 0, 0, 0)).matrix
        assert np.allclose(m, [[0.5, 0], [0, 0.5]], atol=1e-12)

    def test_nonphysical_rejected(self):
        with pytest.raises(ValueError, match="Poincare"):
            ps.density_from_stokes(ps.StokesVector(1, 1, 0, 1))

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            m = random_physical_density(rng)
            back = ps.density_from_stokes(ps.stokes_from_density(m))
            assert np.allclose(m.matrix, back.matrix, atol=1e-12)

    def test_protocol_states_have_zero_s2(self):
        # all amplitudes in the protocol are real, so R/L is always balanced
        for angle in range(0, 180, 5):
            assert ps.stokes_from_density(rho(angle)).s2 == pytest.approx(0.0, abs=1e-12)


class TestEigendecompose:
    def test_worked_mixture_eigenvalues(self):
        spec = ps.eigendecompose(DensityMatrix(MIX_MATRIX))
        assert spec.lambda_max == pytest.approx(MIX_EIG_MAX, abs=1e-12)
        assert spec.lambda_min == pytest.approx(MIX_EIG_MIN, abs=1e-12)

    def test_worked_mixture_angles(self):
        spec = ps.eigendecompose(DensityMatrix(MIX_MATRIX))
        assert spec.principal_angle_deg == pytest.approx(MIX_ANGLE, abs=1e-9)

    @pytest.mark.parametrize("diagonal, angle", [((0.7, 0.3), 0.0), ((0.3, 0.7), 90.0)])
    def test_diagonal_state_axis(self, diagonal, angle):
        # exactly zero coherence: the principal axis is the larger diagonal entry's
        spec = ps.eigendecompose(DensityMatrix(np.diag(diagonal)))
        assert spec.principal_angle_deg == angle

    @pytest.mark.parametrize("s3, angle", [(0.4, 0.0), (-0.4, 90.0), (-1.0, 90.0)])
    def test_stokes_spectrum_diagonal_axis(self, s3, angle):
        s = ps.StokesVector(1.0, 0.0, 0.0, s3)
        spec = stokes_spectrum(s)
        ref = ps.eigendecompose(ps.density_from_stokes(s))
        assert spec.principal_angle_deg == angle == ref.principal_angle_deg
        assert spec.lambda_min == pytest.approx(0.5 * (1.0 - abs(s3)), abs=1e-15)

    def test_stokes_spectrum_matches_eigendecompose(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            m = random_physical_density(rng)
            spec, ref = stokes_spectrum(ps.stokes_from_density(m)), ps.eigendecompose(m)
            assert spec.lambda_max == pytest.approx(ref.lambda_max, abs=1e-12)
            assert spec.principal_angle_deg == pytest.approx(ref.principal_angle_deg, abs=1e-9)
        assert stokes_spectrum(ps.StokesVector(1.0, 0.0, 0.0, 0.0)).principal_angle_deg is None

    def test_degenerate_angles_undefined(self):
        spec = ps.eigendecompose(DensityMatrix(np.eye(2) / 2))
        assert spec.lambda_max == pytest.approx(0.5)
        assert spec.principal_angle_deg is None

    def test_pure_state_recovers_its_angle(self):
        for angle in np.linspace(0.5, 179.5, 90):
            spec = ps.eigendecompose(rho(angle))
            assert spec.principal_angle_deg == pytest.approx(angle, abs=1e-9)

    def test_eigenpair_residuals(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            m = random_physical_density(rng)
            spec = ps.eigendecompose(m)
            w, v = np.linalg.eigh(m.matrix)
            assert spec.lambda_max == pytest.approx(w[1], abs=1e-12)
            assert spec.lambda_min == pytest.approx(w[0], abs=1e-12)

    def test_mixture_eigenvalue_closed_form(self):
        # independent characteristic-polynomial result for a two-angle mixture
        n = 100
        for f100 in range(0, 51, 1):
            f = f100 / 100
            for delta in (7.5, 15, 30, 60, 90):
                theta = 20.0
                counts = [(n - f100, theta), (f100, theta + delta)]
                counts = [(c, a) for c, a in counts if c > 0]
                spec = ps.eigendecompose(ps.ensemble_density(ps.PhotonEnsemble(tuple(counts))))
                expected = 0.5 * (
                    1 + math.sqrt(1 - 4 * f * (1 - f) * math.sin(math.radians(delta)) ** 2)
                )
                assert spec.lambda_max == pytest.approx(expected, abs=1e-10)


class TestRenderMatrix:
    def test_rounding_residue_prints_as_zero(self):
        m = DensityMatrix(np.array([[1.0, -1e-9], [-1e-9, 1e-18]]))
        assert render_matrix(m) == "[[1.000000, 0.000000], [0.000000, 0.000000]]"

    def test_complex_entries(self):
        m = ps.density_from_stokes(ps.StokesVector(1.0, -1e-9, 0.5, 0.0))
        assert render_matrix(m) == (
            "[[0.500000, 0.000000-0.250000j], [0.000000+0.250000j, 0.500000]]"
        )


class TestMatrixDistance:
    def test_identical(self):
        assert ps.matrix_distance(rho(30), rho(30)) == 0.0

    def test_worked_mixture(self):
        # root-sum-square of entry differences (0.05, 0.0134, 0.0134, 0.05)
        d = ps.matrix_distance(rho(30), DensityMatrix(MIX_MATRIX))
        assert d == pytest.approx(0.07320508075688768, abs=1e-9)

    def test_orthogonal_projectors(self):
        assert ps.matrix_distance(rho(0), rho(90)) == pytest.approx(math.sqrt(2), abs=1e-12)

    @settings(max_examples=100)
    @given(
        st.floats(min_value=0, max_value=179),
        st.floats(min_value=0, max_value=179),
        st.floats(min_value=0, max_value=179),
    )
    def test_metric_axioms(self, a, b, c):
        ra, rb, rc = rho(a), rho(b), rho(c)
        assert ps.matrix_distance(ra, rb) == pytest.approx(ps.matrix_distance(rb, ra), abs=1e-12)
        assert ps.matrix_distance(ra, rc) <= (
            ps.matrix_distance(ra, rb) + ps.matrix_distance(rb, rc) + 1e-12
        )
