"""The exact-mode Bloch-vector kernel against the complex 2x2 matrix path.

The reference builds the three received populations explicitly and goes
through ensemble_density, eigendecompose, purity and matrix_distance; the
kernel works on closed forms of the received Stokes vector. Values must agree
to TOL and decisions must be equal wherever no value is within MARGIN of a
decision threshold. Principal angles are compared through the Stokes vectors
they imply, to ANGLE_TOL.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polarsim as ps
from polarsim.polarization import DEGENERACY_TOL, bloch_summary, linear_stokes
from polarsim.protocol import EXACT_EPS_DISTANCE, EXACT_EPS_PURITY, received_stokes

TOL = 1e-12
MARGIN = 1e-9
# the reference reads the principal axis off the eigenvector (c, lmax - m00),
# which loses digits to cancellation as the coherence c goes to zero (states
# near horizontal); angles are compared where |c| >= MIN_COHERENCE
ANGLE_TOL = 1e-9
MIN_COHERENCE = 1e-6


def reference(components, theta):
    """(rho, purity, spectrum, dist_h0, dist_h90, decision or None) for
    received (count, angle) populations and Alice's angle theta."""
    rho = ps.ensemble_density(ps.PhotonEnsemble(tuple((c, a) for c, a in components if c > 0)))
    p = ps.purity(rho)
    d0 = ps.matrix_distance(rho, ps.density_of_pure(theta))
    d90 = ps.matrix_distance(rho, ps.density_of_pure(theta + 90.0))
    near = [abs(p - (1.0 - EXACT_EPS_PURITY)), abs(d0 - EXACT_EPS_DISTANCE),
            abs(d90 - EXACT_EPS_DISTANCE), abs(d0 - d90)]
    if min(near) < MARGIN:
        decision = None
    elif p < 1.0 - EXACT_EPS_PURITY or (d0 > EXACT_EPS_DISTANCE and d90 > EXACT_EPS_DISTANCE):
        decision = ps.Decision.EVE_DETECTED
    else:
        decision = ps.Decision.BIT0 if d0 <= d90 else ps.Decision.BIT1
    return rho, p, ps.eigendecompose(rho), d0, d90, decision


def received(n, theta, bit, s1, s2, phi):
    rotation = 90.0 * bit
    return [(n - s1 - s2, theta + rotation), (s1, phi + rotation), (s2, phi)]


def assert_angle_matches(angle, rho, spectrum):
    """Compare principal angles through the Stokes vectors they imply, which
    stays well conditioned as the state approaches the maximally mixed one."""
    norm = spectrum.lambda_max - spectrum.lambda_min
    if abs(norm - DEGENERACY_TOL) < MARGIN or abs(rho.matrix[0, 1]) < MIN_COHERENCE:
        return
    if spectrum.principal_angle_deg is None:
        assert angle is None
        return
    assert angle is not None
    got = np.multiply(norm, linear_stokes(angle))
    want = np.multiply(norm, linear_stokes(spectrum.principal_angle_deg))
    assert np.hypot(*(got - want)) <= ANGLE_TOL


angles = st.floats(min_value=0.0, max_value=179.999, allow_nan=False)


@st.composite
def transmissions(draw):
    n = draw(st.integers(min_value=1, max_value=100_000))
    s1 = draw(st.integers(min_value=0, max_value=n))
    s2 = draw(st.integers(min_value=0, max_value=n - s1))
    theta = draw(angles)
    bit = draw(st.integers(min_value=0, max_value=1))
    # Eve at Alice's angle or at Bob's output state are the blind spots
    phi = draw(st.one_of(angles, st.sampled_from([theta, ps.normalize_angle(theta + 90.0)])))
    return n, theta, bit, s1, s2, phi


class TestRunProtocolMatchesMatrixPath:
    @settings(max_examples=300, deadline=None)
    @given(transmissions())
    def test_outcome(self, t):
        n, theta, bit, s1, s2, phi = t
        out = ps.run_protocol(ps.ProtocolConfig(
            n_photons=n, alice_angle_deg=theta, bob_bit=bit,
            eve=ps.EveConfig(s1, s2, phi, enabled=True), mode="exact",
        ))
        rho, p, spectrum, d0, d90, decision = reference(
            received(n, theta, bit, s1, s2, phi), theta
        )
        assert np.max(np.abs(out.rho_received.matrix - rho.matrix)) <= TOL
        assert abs(out.purity_received - p) <= TOL
        assert abs(out.spectrum.lambda_max - spectrum.lambda_max) <= TOL
        assert abs(out.spectrum.lambda_min - spectrum.lambda_min) <= TOL
        assert abs(out.dist_to_h0 - d0) <= TOL
        assert abs(out.dist_to_h90 - d90) <= TOL
        assert_angle_matches(out.spectrum.principal_angle_deg, rho, spectrum)
        if decision is not None:
            assert out.decision is decision
        assert out.stage_intensities == (n, n, n)


class TestSweepSiphonMatchesMatrixPath:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=2, max_value=20_000),
        angles,
        angles,
        st.integers(min_value=0, max_value=1),
        st.data(),
    )
    def test_records(self, n, theta, phi, bit, data):
        totals = data.draw(st.lists(
            st.integers(min_value=0, max_value=n // 2), min_size=1, max_size=40, unique=True,
        ))
        spec = ps.SweepSpec(theta_deg=theta, phi_deg=phi, bob_bit=bit, n_photons=n,
                            siphon_totals=tuple(sorted(2 * t for t in totals)))
        for rec in ps.sweep_siphon(spec):
            half = rec.siphon_total // 2
            rho, p, spectrum, _, _, decision = reference(
                received(n, spec.theta_deg, bit, half, half, spec.phi_deg), spec.theta_deg
            )
            assert abs(rec.lambda_max - spectrum.lambda_max) <= TOL
            assert abs(rec.purity - p) <= TOL
            assert_angle_matches(rec.peak_angle_deg, rho, spectrum)
            if decision is not None:
                assert rec.detected is (decision is ps.Decision.EVE_DETECTED)


class TestDeltaFamilyMatchesMatrixPath:
    @settings(max_examples=100, deadline=None)
    @given(
        angles,
        # a grid value may not repeat (test_sweeps checks that it is refused)
        st.lists(st.floats(min_value=0.0, max_value=180.0), min_size=1, max_size=5, unique=True),
        st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=5, unique=True),
    )
    def test_records(self, base, deltas, fractions):
        table = ps.sweep_delta_family(deltas, base, fractions)
        for (delta, f), rec in table.items():
            rho = ps.mixture_density(base, base + delta, f)
            spectrum = ps.eigendecompose(rho)
            assert abs(rec.lambda_max - spectrum.lambda_max) <= TOL
            assert abs(rec.purity - ps.purity(rho)) <= TOL
            assert_angle_matches(rec.peak_angle_deg, rho, spectrum)


@st.composite
def siphon_sweeps(draw):
    """(n_photons, siphon totals), the totals around 0, n/2 and n, half the
    time made even and increasing so that most sweeps build."""
    n = draw(st.one_of(st.integers(1, 20), st.integers(1, 10**6)))
    total = st.one_of(st.integers(0, n + 2), st.integers(n - 2, n + 2))
    totals = draw(st.lists(total, min_size=1, max_size=6))
    if draw(st.booleans()):
        totals = sorted({t - t % 2 for t in totals})
    return n, tuple(totals)


class TestKernelChecks:
    def test_non_finite_components_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            bloch_summary(np.array([0.0, np.nan]), np.array([1.0, 0.0]))

    def test_outside_poincare_sphere_rejected(self):
        with pytest.raises(ValueError, match="Poincare"):
            bloch_summary(np.array([0.0, 0.8]), np.array([1.0, 0.8]))

    def test_bound_is_density_from_stokes_bound(self):
        # |s| up to 1 + 2 PSD_TOL is physical for both, however it is built
        s1 = 1.0 + 1e-10
        ps.density_from_stokes(ps.StokesVector(1.0, s1, 0.0, 0.0))
        assert bloch_summary(s1, 0.0).lambda_max == pytest.approx(1.0)
        with pytest.raises(ValueError, match="Poincare"):
            bloch_summary(1.0 + 3e-10, 0.0)

    def test_degenerate_angle_is_nan(self):
        summary = bloch_summary(np.array([0.0, 0.6]), np.array([0.0, 0.8]))
        assert math.isnan(summary.principal_angle_deg[0])
        assert summary.principal_angle_deg[1] == pytest.approx(18.434948822922010)

    def test_python_floats_accepted(self):
        summary = bloch_summary(0.6, 0.8)
        assert summary.purity == 1.0
        assert float(summary.principal_angle_deg) == pytest.approx(18.434948822922010)

    @settings(max_examples=300, deadline=None)
    @given(siphon_sweeps(), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.integers(0, 1))
    def test_a_sweep_that_builds_stays_in_the_siphon_bound(self, case, theta, phi, bit):
        # received_stokes trusts its siphons: SweepSpec's bound on a total
        # keeps both halves within ProtocolConfig's, and every received
        # state inside the Poincare sphere
        n, totals = case
        try:
            spec = ps.SweepSpec(theta, phi, bit, n, totals)
        except ValueError:
            return
        half = np.array(spec.siphon_totals, dtype=np.int64) // 2
        for h in half.tolist():
            ps.ProtocolConfig(n, theta, bit, ps.EveConfig(h, h, phi, enabled=h > 0))
        bloch_summary(*received_stokes(n, spec.theta_deg, bit, half, half, spec.phi_deg))

    def test_batch_equals_scalar_calls(self):
        siphons = np.arange(0, 51, 5)
        batch = bloch_summary(*received_stokes(100, 20.0, 1, siphons, siphons, 70.0))
        for k, s in enumerate(siphons.tolist()):
            one = bloch_summary(*received_stokes(100, 20.0, 1, s, s, 70.0))
            np.testing.assert_array_equal([v[k] for v in batch], list(one))


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_principal_angle_stays_in_canonical_range(theta):
    angle = bloch_summary(*linear_stokes(ps.normalize_angle(theta))).principal_angle_deg
    assume(not math.isnan(angle))
    assert 0.0 <= angle < 180.0
