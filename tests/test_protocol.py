import hashlib
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polarsim as ps
from polarsim import protocol
from polarsim.polarization import DensityMatrix

# sha256 of the key=value blocks of golden_configs(mode), joined by blank
# lines, recorded while exact mode still decided on the matrix-path purity
# and Frobenius distances
RUN_PROTOCOL_SHA256 = {
    "exact": "2dae8f39433ecc6d886abef95bd3268f05ca44a023b12920604f861dbfcde36e",
    "sampled": "b5b4f05cba74c1648556be450b0092618f15f74390ac4db4df7989e23a85a96a",
}
# sha256 of their CSV rows, joined by newlines, recorded while to_csv_row
# still parsed the key=value lines back into columns
RUN_PROTOCOL_CSV_SHA256 = {
    "exact": "2310ca5c7fb63d9e419311c2a605abf26a236ef381f638963d2571b7bfd327c1",
    "sampled": "69bb5cd604556c7ebe9ec6a7466d0beb49d8d43607a5bbf91433b8a6a6043ada",
}

MIX = DensityMatrix(np.array([[0.7, 0.44641016151377546], [0.44641016151377546, 0.3]]))


def rho(angle_deg):
    return ps.density_of_pure(angle_deg)


def config(theta=30.0, bit=0, n=100, eve=None, mode="exact", seed=0, ppb=100_000):
    return ps.ProtocolConfig(
        n_photons=n,
        alice_angle_deg=theta,
        bob_bit=bit,
        eve=eve or ps.EveConfig.disabled(),
        mode=mode,
        tomography=ps.TomographyConfig(photons_per_basis=ppb, seed=seed),
    )


def decide_on(received, h0, h90, eps_dist, eps_purity):
    """decide on a received matrix's purity and Frobenius distances to two
    hypothesis matrices, read off by the matrix-path references."""
    return ps.decide(ps.purity(received), ps.matrix_distance(received, h0),
                     ps.matrix_distance(received, h90), eps_dist, eps_purity)


class TestDecide:
    def test_mixed_state_is_detected(self):
        d = decide_on(MIX, rho(30), rho(120), 1e-6, 1e-6)
        assert d is ps.Decision.EVE_DETECTED

    def test_exact_match_bit0(self):
        assert decide_on(rho(30), rho(30), rho(120), 1e-6, 1e-6) is ps.Decision.BIT0

    def test_exact_match_bit1(self):
        assert decide_on(rho(120), rho(30), rho(120), 1e-6, 1e-6) is ps.Decision.BIT1

    def test_pure_but_far_from_both_is_detected(self):
        assert decide_on(rho(60), rho(30), rho(120), 1e-6, 1e-6) is ps.Decision.EVE_DETECTED

    def test_tie_breaks_to_bit0(self):
        # rho(90) is exactly equidistant from rho(45) and rho(135) in floats
        assert decide_on(rho(90), rho(45), rho(135), 2.0, 1e-6) is ps.Decision.BIT0


@st.composite
def decision_inputs(draw):
    """(purity, dist_h0, dist_h90, eps_dist, eps_purity), with purity on its
    threshold, distances on theirs and equal distances drawn often."""
    eps_dist = draw(st.floats(1e-12, 1.0))
    eps_purity = draw(st.floats(1e-12, 0.5))
    purity = draw(st.one_of(st.floats(0.5, 1.0), st.just(1.0 - eps_purity)))
    dist_h0 = draw(st.one_of(st.floats(0.0, 2.0), st.just(eps_dist)))
    dist_h90 = draw(st.one_of(st.floats(0.0, 2.0), st.just(eps_dist), st.just(dist_h0)))
    return purity, dist_h0, dist_h90, eps_dist, eps_purity


@settings(max_examples=500, deadline=None)
@given(decision_inputs())
@example((1.0, 1e-9, 1e-9, 1e-9, 1e-6))
@example((1.0 - 1e-6, 0.0, 1.0, 1e-9, 1e-6))
@example((1.0, 0.25, 0.25, 0.5, 1e-6))
def test_scalar_decision_matches_eve_detected(inputs):
    # run_protocol decides with decide, the sweeps read Eve off eve_detected
    # elementwise on arrays
    decision = protocol.decide(*inputs)
    purity, dist_h0, dist_h90, eps_dist, eps_purity = inputs
    [detected] = protocol.eve_detected(np.array([purity]), np.array([dist_h0]),
                                       np.array([dist_h90]), eps_dist, eps_purity)
    assert (decision is ps.Decision.EVE_DETECTED) is bool(detected)
    if dist_h0 == dist_h90 and decision is not ps.Decision.EVE_DETECTED:
        assert decision is ps.Decision.BIT0


class TestIntensityCheck:
    def test_constant(self):
        assert ps.intensity_check((100, 100, 100)) is True

    def test_siphon_without_reinjection(self):
        assert ps.intensity_check((100, 95, 95)) is False

    def test_second_stage_loss(self):
        assert ps.intensity_check((100, 100, 90)) is False

    @pytest.mark.parametrize("record, holds", [
        ((), True), (iter(()), True), (iter((7, 7, 7)), True), (iter((7, 7, 6)), False),
    ], ids=["empty", "empty-iterator", "equal-iterator", "unequal-iterator"])
    def test_any_record(self, record, holds):
        # a record with no count shows no change of count; an iterator is read once
        assert ps.intensity_check(record) is holds


class TestEveConfig:
    @pytest.mark.parametrize("siphons", [(10, 10), (10, 0), (0, 10)])
    def test_disabled_eve_cannot_siphon(self, siphons):
        with pytest.raises(ValueError, match="enabled=True"):
            ps.EveConfig(*siphons, 45.0)

    @pytest.mark.parametrize("siphons", [(-1, 0), (0, -1)])
    def test_negative_siphon_rejected(self, siphons):
        with pytest.raises(ValueError, match="non-negative"):
            ps.EveConfig(*siphons, 45.0, enabled=True)

    @pytest.mark.parametrize("enabled", ["no", 1, 0, None, np.bool_(True)],
                             ids=["str", "one", "zero", "none", "numpy-bool"])
    def test_enabled_must_be_a_bool(self, enabled):
        # a truthy non-bool such as "no" would switch the attack on
        message = f"enabled must be a bool, got {enabled!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ps.EveConfig(1, 0, 0.0, enabled=enabled)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_enabled_without_siphons_is_no_attack(self, mode):
        idle = ps.run_protocol(config(eve=ps.EveConfig(0, 0, 45.0, enabled=True), mode=mode))
        absent = ps.run_protocol(config(mode=mode))
        assert idle.to_key_value_block() == absent.to_key_value_block()

    def test_no_eve_is_one_shared_config(self):
        # the class is frozen, so every config without Eve can hold one instance
        assert ps.EveConfig.disabled() is ps.EveConfig.disabled()
        assert ps.EveConfig.disabled() == ps.EveConfig()
        assert ps.ProtocolConfig(10, 30.0, 0).eve is ps.EveConfig.disabled()


class TestProtocolConfig:
    def test_configs_without_one_share_one_tomography_config(self):
        # frozen, as EveConfig is, so no config built without one builds its own
        exact = ps.ProtocolConfig(10, 30.0, 0)
        sampled = ps.ProtocolConfig(20, 45.0, 1, mode="sampled")
        assert exact.tomography is sampled.tomography
        assert exact.tomography == ps.TomographyConfig()

    @pytest.mark.parametrize("field, value, message", [
        ("n", 0, "n_photons must be positive"),
        ("bit", 2, "bob_bit must be 0 or 1"),
        # 0 and 1 by value, but a bit is an integer: a bool or a float would
        # be recorded as True or 1.0, which --bit cannot read back
        ("bit", True, "bob_bit must be 0 or 1"),
        ("bit", 1.0, "bob_bit must be 0 or 1"),
        ("mode", "fast", "mode must be 'exact' or 'sampled'"),
    ], ids=["n_photons", "bob_bit", "bob_bit-bool", "bob_bit-float", "mode"])
    def test_invalid_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            config(**{field: value})

    @pytest.mark.parametrize("n, siphons, mode, message", [
        (10, (11, 0), "exact",
         "siphon count 11 exceeds the 10 untouched photons available at this stage"),
        (10, (6, 5), "exact",
         "siphon count 5 exceeds the 4 untouched photons available at this stage"),
        (100, (0, 101), "sampled",
         "siphon count 101 exceeds the 100 untouched photons available at this stage"),
        (10, (6, 5), "sampled",
         "siphon count 5 exceeds the 4 untouched photons available at this stage"),
    ], ids=["exact-stage1", "exact-stage2", "sampled-beam", "sampled-stage2"])
    def test_siphon_excess_refused_when_built(self, n, siphons, mode, message):
        eve = ps.EveConfig(*siphons, 45.0, enabled=True)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config(n=n, eve=eve, mode=mode)


@st.composite
def siphons_near_the_bounds(draw):
    """(n, siphon1, siphon2, mode) with each count on or beside a bound:
    zero, half the beam, what stage 1 left, or the beam; n reaches 10^9, the
    beam size sampled mode once refused with a siphon."""
    n = draw(st.sampled_from([1, 2, 10, 101, 10**9 - 1, 10**9]))
    near = st.integers(-2, 2)
    s1 = max(0, draw(st.sampled_from([0, n // 2, n])) + draw(near))
    s2 = max(0, draw(st.sampled_from([0, n // 2, n - s1, n])) + draw(near))
    return n, s1, s2, draw(st.sampled_from(["exact", "sampled"]))


@settings(max_examples=300, deadline=None)
@given(siphons_near_the_bounds())
def test_a_config_that_builds_runs(case):
    n, s1, s2, mode = case
    eve = ps.EveConfig(s1, s2, 45.0, enabled=True)
    try:
        built = config(n=n, eve=eve, mode=mode, ppb=1000)
    except ValueError:
        return
    assert ps.run_protocol(built).stage_intensities == (n, n, n)


@pytest.mark.parametrize("build, message", [
    (lambda: config(n=100.5), "n_photons must be an integer, got 100.5"),
    (lambda: config(n=100.5, mode="sampled"), "n_photons must be an integer, got 100.5"),
    (lambda: config(n=True), "n_photons must be an integer, got True"),
    (lambda: ps.EveConfig(1.5, 0, 45.0, enabled=True), "siphon counts must be integers, got 1.5"),
    (lambda: ps.EveConfig(0, 2.5, 45.0, enabled=True), "siphon counts must be integers, got 2.5"),
    (lambda: ps.EveConfig(0, True, 45.0, enabled=True), "siphon counts must be integers, got True"),
    (lambda: ps.TomographyConfig(photons_per_basis=10.5),
     "photons_per_basis must be an integer, got 10.5"),
    (lambda: ps.SweepSpec(30.0, 45.0, n_photons=100.5), "n_photons must be an integer, got 100.5"),
    # a count is type-checked before its range, so one that cannot be
    # compared with a number is a ValueError, not the range test's TypeError
    (lambda: ps.ProtocolConfig("5", 30.0, 0), "n_photons must be an integer, got '5'"),
    (lambda: ps.ProtocolConfig(None, 30.0, 0), "n_photons must be an integer, got None"),
    (lambda: ps.EveConfig("3", 0, 0, True), "siphon counts must be integers, got '3'"),
    (lambda: ps.TomographyConfig("9"), "photons_per_basis must be an integer, got '9'"),
    (lambda: ps.TomographyConfig(None), "photons_per_basis must be an integer, got None"),
    (lambda: ps.SweepSpec(30, 45, n_photons=None), "n_photons must be an integer, got None"),
], ids=["n_photons-exact", "n_photons-sampled", "n_photons-bool", "siphon1", "siphon2",
        "siphon2-bool", "photons_per_basis", "sweep-n_photons", "n_photons-str",
        "n_photons-none", "siphon1-str", "photons_per_basis-str", "photons_per_basis-none",
        "sweep-n_photons-none"])
def test_photon_counts_must_be_integers(build, message):
    # refused when the config is built, before either mode runs it
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def lambda_max_gap(angle):
    # closed_form_lambda_max once read True as a 1 degree gap, and NaN as no gap
    return ps.closed_form_lambda_max(0.2, angle)


ANGLE_BUILDS = {
    "theta": lambda angle: config(theta=angle),
    "eve-angle": lambda angle: ps.EveConfig(1, 0, angle, enabled=True),
    "ensemble": lambda angle: ps.PhotonEnsemble(((1, angle),)),
    "sweep-theta": lambda angle: ps.SweepSpec(angle, 45.0),
    "sweep-phi": lambda angle: ps.SweepSpec(30.0, angle),
}


@pytest.mark.parametrize(
    "build",
    [ps.normalize_angle, ps.density_of_pure, lambda angle: ps.mixture_density(angle, 60.0, 0.1),
     lambda angle: ps.mixture_density(30.0, angle, 0.1), lambda_max_gap, *ANGLE_BUILDS.values()],
    ids=["normalize_angle", "pure_state", "mixture-theta", "mixture-phi", "lambda-max-gap",
         *ANGLE_BUILDS.keys()],
)
@pytest.mark.parametrize(
    "angle", [True, False, np.bool_(True), "30", None, 30 + 0j, np.complex128(30)],
    ids=["bool", "false", "numpy-bool", "str", "none", "complex", "numpy-complex"],
)
def test_angles_must_be_real_numbers(build, angle):
    # a bool once ran as 1 or 0 degrees, and a string or None raised TypeError;
    # normalize_angle itself, and the helpers that call it directly, read True
    # as 1 degree after the configs had stopped doing so
    message = f"polarization angle must be a real number, got {angle!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(angle)


@pytest.mark.parametrize("angle", [30, 30.0, np.int64(30), np.float32(30.0), np.float64(210.0)],
                         ids=["int", "float", "numpy-int", "numpy-float32", "numpy-float64"])
def test_real_angles_accepted(angle):
    assert config(theta=angle).alice_angle_deg == 30.0
    assert ps.EveConfig(1, 0, angle, enabled=True).injection_angle_deg == 30.0
    assert ps.PhotonEnsemble(((1, angle),)).components == ((1, 30.0),)
    assert ps.SweepSpec(angle, angle).phi_deg == 30.0


def reference_normalize_angle(raw_degrees):
    """normalize_angle before canonical floats passed through it: every
    angle takes the reduction."""
    if not math.isfinite(raw_degrees):
        raise ValueError(f"polarization angle must be finite, got {raw_degrees!r}")
    reduced = raw_degrees % 180.0
    if reduced >= 180.0:  # guard against float roundup at the boundary
        reduced = 0.0
    return reduced


# where each build keeps its canonical angle
STORED_ANGLES = {
    "theta": lambda built: built.alice_angle_deg,
    "eve-angle": lambda built: built.injection_angle_deg,
    "ensemble": lambda built: built.components[0][1],
    "sweep-theta": lambda built: built.theta_deg,
    "sweep-phi": lambda built: built.phi_deg,
}


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.floats(-720.0, 720.0),
    st.integers(-720, 720),
    st.floats(-720.0, 720.0).map(np.float64),
    st.floats(-720.0, 720.0, width=32).map(np.float32),
))
@example(0.0)
@example(-0.0)
@example(180.0)
@example(179.99999999999997)
@example(5e-324)
@example(-5e-324)
@example(90)
@example(np.float64(30.0))
@example(np.float32(30.0))
def test_canonical_angles_pass_through_as_the_reduction_gives(angle):
    # a float strictly inside (0, 180) skips the reduction and the type check
    # wherever an angle is made canonical; zero does not, so -0.0 is still
    # stored as 0.0 (a sweep at --theta -0 writes theta_deg=0.0)
    expected = reference_normalize_angle(angle)
    reduced = ps.normalize_angle(angle)
    assert (repr(reduced), type(reduced)) == (repr(expected), type(expected))
    for name, build in ANGLE_BUILDS.items():
        stored = STORED_ANGLES[name](build(angle))
        assert (repr(stored), type(stored)) == (repr(expected), type(expected)), name


@pytest.mark.parametrize("build", [ps.normalize_angle, lambda_max_gap, *ANGLE_BUILDS.values()],
                         ids=["normalize_angle", "lambda-max-gap", *ANGLE_BUILDS.keys()])
@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_angles_keep_their_message(build, angle):
    message = f"polarization angle must be finite, got {angle!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(angle)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_mixed_numpy_counts_run_as_python_ints(mode):
    # numpy's uint64 - int64 is float64, so exact mode once refused Alice's
    # population computed from these counts as a non-integer count
    def build(n, siphon, ppb, seed):
        eve = ps.EveConfig(siphon, 0, 45.0, enabled=True)
        return ps.ProtocolConfig(n, 30.0, 0, eve, mode, ps.TomographyConfig(ppb, seed))

    mixed = build(np.uint64(10), np.int64(3), np.uint64(1000), np.int64(5))
    plain = build(10, 3, 1000, 5)
    assert ps.run_protocol(mixed).to_key_value_block() == ps.run_protocol(plain).to_key_value_block()
    spec = ps.SweepSpec(30.0, 45.0, np.int64(1), np.uint64(10), np.arange(0, 6, 2), mode,
                        np.uint64(5))
    stored = (mixed.n_photons, mixed.eve.siphon_stage1, mixed.eve.siphon_stage2,
              mixed.tomography.photons_per_basis, mixed.tomography.seed,
              spec.n_photons, spec.seed, *spec.siphon_totals)
    assert [type(count) for count in stored] == [int] * len(stored)


def test_numpy_integer_counts_accepted():
    n, siphon = np.int64(100), np.int64(10)
    eve = ps.EveConfig(siphon, siphon, 45.0, enabled=True)
    outcome = ps.run_protocol(config(n=n, eve=eve, mode="sampled", ppb=np.int64(1000)))
    assert outcome.stage_intensities == (100, 100, 100)


class TestRunProtocolExact:
    def test_worked_attack(self):
        out = ps.run_protocol(config(eve=ps.EveConfig(10, 10, 45, enabled=True)))
        assert np.allclose(out.rho_received.matrix, MIX.matrix, atol=1e-12)
        assert out.decision is ps.Decision.EVE_DETECTED
        assert out.purity_received < 1 - 1e-6
        assert ps.intensity_check(out.stage_intensities) is True
        assert out.stage_intensities == (100, 100, 100)

    def test_no_attack_bit0(self):
        out = ps.run_protocol(config(bit=0))
        assert out.decision is ps.Decision.BIT0
        assert out.purity_received == pytest.approx(1.0, abs=1e-12)
        assert out.dist_to_h0 == pytest.approx(0.0, abs=1e-12)

    def test_no_attack_bit1(self):
        out = ps.run_protocol(config(bit=1))
        assert out.decision is ps.Decision.BIT1
        expected = np.array([[0.25, -math.sqrt(3) / 4], [-math.sqrt(3) / 4, 0.75]])
        assert np.allclose(out.rho_received.matrix, expected, atol=1e-12)
        assert np.allclose(out.rho_hypothesis_90.matrix, expected, atol=1e-12)

    def test_no_attack_all_angles_and_bits(self):
        for theta in range(0, 180):
            for bit in (0, 1):
                out = ps.run_protocol(config(theta=float(theta), bit=bit))
                expected = ps.Decision.BIT0 if bit == 0 else ps.Decision.BIT1
                assert out.decision is expected

    def test_stealth_angle_blind_spot(self):
        # Eve injecting at Alice's own angle is invisible to this method
        out = ps.run_protocol(config(theta=30, bit=0, eve=ps.EveConfig(10, 10, 30, enabled=True)))
        assert out.decision is ps.Decision.BIT0
        assert np.allclose(out.rho_received.matrix, rho(30).matrix, atol=1e-12)

    def test_siphon_exceeding_photons_rejected(self):
        with pytest.raises(ValueError, match="siphon"):
            ps.run_protocol(config(eve=ps.EveConfig(150, 0, 45, enabled=True)))

    @pytest.mark.parametrize("siphons, message", [
        ((11, 0), "siphon count 11 exceeds the 10 untouched photons available at this stage"),
        ((6, 5), "siphon count 5 exceeds the 4 untouched photons available at this stage"),
    ], ids=["stage1", "stage2"])
    def test_siphon_excess_names_the_stage(self, siphons, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ps.run_protocol(config(n=10, eve=ps.EveConfig(*siphons, 45, enabled=True)))

    def test_purity_closed_form_under_attack(self):
        # purity(rho'') = 1 - 2 f (1-f) sin^2(delta); validated against the
        # brute-force ensemble construction over a grid
        n = 100
        for f100 in range(0, 51, 5):
            for delta in (7.5, 15, 30, 60, 90):
                half = f100 // 2
                extra = f100 - half
                out = ps.run_protocol(
                    config(
                        theta=20,
                        bit=0,
                        n=n,
                        eve=ps.EveConfig(half, extra, 20 + delta, enabled=f100 > 0),
                    )
                )
                f = f100 / n
                expected = 1 - 2 * f * (1 - f) * math.sin(math.radians(delta)) ** 2
                assert out.purity_received == pytest.approx(expected, abs=1e-10)

    def test_min_distance_monotone_in_siphon_total(self):
        prev = -1.0
        for total in range(0, 101, 10):
            out = ps.run_protocol(
                config(theta=30, bit=0, eve=ps.EveConfig(total // 2, total // 2, 75, enabled=total > 0))
            )
            d = min(out.dist_to_h0, out.dist_to_h90)
            assert d >= prev - 1e-12
            prev = d

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0, max_value=179.0),
        st.floats(min_value=0, max_value=179.0),
        st.integers(min_value=1, max_value=49),
        st.integers(min_value=0, max_value=1),
    )
    def test_equal_count_attack_defeats_intensity_but_not_state(self, theta, phi, x, bit):
        # the central claim: replacement keeps intensity flat, yet any
        # injection angle that differs from the carried state mixes the
        # received density matrix
        out = ps.run_protocol(
            config(theta=theta, bit=bit, eve=ps.EveConfig(x, x, phi, enabled=True))
        )
        assert ps.intensity_check(out.stage_intensities) is True
        gap_stage2 = abs(ps.normalize_angle(theta + 90 * bit) - ps.normalize_angle(phi))
        gap_stage1 = abs(ps.normalize_angle(theta) - ps.normalize_angle(phi))
        if min(gap_stage1, gap_stage2) > 0.5:  # away from the blind spots
            assert out.purity_received < 1.0 - 1e-9


class TestRunProtocolSampled:
    def test_deterministic_given_seed(self):
        cfg = config(eve=ps.EveConfig(10, 10, 45, enabled=True), mode="sampled", seed=7)
        out1 = ps.run_protocol(cfg)
        out2 = ps.run_protocol(cfg)
        assert np.array_equal(out1.rho_received.matrix, out2.rho_received.matrix)
        assert out1.decision is out2.decision

    def test_attack_detected(self):
        out = ps.run_protocol(
            config(eve=ps.EveConfig(10, 10, 45, enabled=True), mode="sampled", seed=3)
        )
        assert out.decision is ps.Decision.EVE_DETECTED

    def test_no_attack_decodes_bit(self):
        for bit in (0, 1):
            out = ps.run_protocol(config(bit=bit, mode="sampled", seed=5))
            expected = ps.Decision.BIT0 if bit == 0 else ps.Decision.BIT1
            assert out.decision is expected

    def test_agreement_with_exact_mode(self):
        scenarios = [
            (0, None),
            (1, None),
            (0, ps.EveConfig(10, 10, 45, enabled=True)),
            (1, ps.EveConfig(15, 15, 75, enabled=True)),
        ]
        agree = 0
        runs = 0
        for seed in range(25):
            for bit, eve in scenarios:
                exact = ps.run_protocol(config(bit=bit, eve=eve))
                sampled = ps.run_protocol(config(bit=bit, eve=eve, mode="sampled", seed=seed))
                runs += 1
                if exact.decision is sampled.decision:
                    agree += 1
        assert agree / runs >= 0.99


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("theta", [0.0, 30.0, 112.5, 179.5, 210.0])
def test_hypotheses_are_alices_state_and_its_rotation(mode, theta):
    out = ps.run_protocol(
        config(theta=theta, bit=1, eve=ps.EveConfig(10, 10, 45, enabled=True), mode=mode, seed=2)
    )
    assert np.array_equal(out.rho_hypothesis_0.matrix, rho(theta).matrix)
    assert np.array_equal(out.rho_hypothesis_90.matrix, rho(theta + 90.0).matrix)


# (bit, eve, photons_per_basis) of each run, and the received matrices of
# their sampled runs, recorded while a sampled run still built its
# reconstruction as a DensityMatrix; the last one is projected
RUNS = [(0, None, 100_000), (1, ps.EveConfig(10, 10, 45.0, enabled=True), 100_000),
        (1, ps.EveConfig(10, 10, 45.0, enabled=True), 3)]
SAMPLED_RECEIVED = [
    [[(0.74829+0j), (0.43296-0.00026j)], [(0.43296+0.00026j), (0.25171+0j)]],
    [[(0.30181+0j), (-0.34632-0.00026j)], [(-0.34632+0.00026j), (0.69819+0j)]],
    [[(0.3852921330647191+0j), (-0.34412360080584264+0.34412360080584264j)],
     [(-0.34412360080584264-0.34412360080584264j), (0.6147078669352809+0j)]],
]


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_one_density_matrix_per_run(monkeypatch, mode):
    # both modes read out and decide on the received Stokes vector, with no
    # hypothesis matrices: an exact run builds only its ensemble's matrix, a
    # sampled run none, and reading rho_received builds the received one
    built = []
    original = DensityMatrix.__post_init__

    def spy(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", spy)
    per_run = 1 if mode == "exact" else 0
    for (bit, eve, ppb), recorded in zip(RUNS, SAMPLED_RECEIVED):
        built.clear()
        outcome = ps.run_protocol(config(bit=bit, eve=eve, mode=mode, ppb=ppb))
        assert len(built) == per_run
        rho_received = outcome.rho_received
        assert len(built) == per_run + 1 and built[-1] is rho_received
        if mode == "exact":
            assert np.abs(rho_received.matrix - built[0].matrix).max() <= 1e-12
        else:
            assert rho_received.matrix.tolist() == recorded


def golden_configs(mode):
    """2,000 seeded configs: n from 1 to 10^5, angles on the half-degree grid
    or anywhere in (-360, 360), Eve in about 80% with any siphons the bound
    allows, injecting at theta, at theta + 90, on the grid or anywhere."""
    rng = random.Random(f"run-protocol-golden:{mode}")
    configs = []
    for _ in range(2000):
        n = round(10 ** rng.uniform(0.0, 5.0))
        theta = 0.5 * rng.randrange(360) if rng.random() < 0.5 else rng.uniform(-360.0, 360.0)
        bit = rng.randrange(2)
        eve = ps.EveConfig.disabled()
        if rng.random() < 0.8:
            phi = (theta, theta + 90.0, 0.5 * rng.randrange(360), rng.uniform(-360.0, 360.0))[
                rng.randrange(4)]
            s1 = rng.randint(0, n)
            s2 = rng.randint(0, n - s1)
            eve = ps.EveConfig(s1, s2, phi, enabled=True)
        tomography = ps.TomographyConfig(rng.choice((10, 1_000, 100_000)), rng.getrandbits(32))
        configs.append(ps.ProtocolConfig(n, theta, bit, eve, mode, tomography))
    return configs


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_run_protocol_output_golden(mode):
    outcomes = [ps.run_protocol(c) for c in golden_configs(mode)]
    text = "\n\n".join(outcome.to_key_value_block() for outcome in outcomes)
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_PROTOCOL_SHA256[mode]
    rows = "\n".join(outcome.to_csv_row() for outcome in outcomes)
    assert hashlib.sha256(rows.encode()).hexdigest() == RUN_PROTOCOL_CSV_SHA256[mode]


def reference_format_decimal(x):
    text = f"{x:.6f}"
    return "0.000000" if text == "-0.000000" else text


def reference_report_lines(outcome):
    """The key=value lines of a report, one format call per value: the
    renderer that to_key_value_block and to_csv_row replaced."""

    def line(key, value):
        return key + "=" + ("" if value is None else reference_format_decimal(value))

    return [
        f"decision={outcome.decision.value}",
        line("purity", outcome.purity_received),
        line("dist_h0", outcome.dist_to_h0),
        line("dist_h90", outcome.dist_to_h90),
        line("lambda_max", outcome.spectrum.lambda_max),
        line("lambda_min", outcome.spectrum.lambda_min),
        line("principal_angle_deg", outcome.spectrum.principal_angle_deg),
        f"intensity_sent={outcome.stage_intensities[0]}",
        f"intensity_after_stage1={outcome.stage_intensities[1]}",
        f"intensity_after_stage2={outcome.stage_intensities[2]}",
    ]


def reference_csv_row(outcome):
    fields = dict(line.split("=", 1) for line in reference_report_lines(outcome))
    return ",".join(fields[column] for column in protocol.PROTOCOL_CSV_HEADER.split(","))


# values on both sides of the six-decimal rounding edges, signed zeros and
# the non-finite floats, beside any float
REPORT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 4e-7, -4e-7, 5e-7, -5e-7, 5.000001e-7, -5.000001e-7,
                     math.nan, math.inf, -math.inf]),
    st.floats(),
)


@settings(max_examples=300, deadline=None)
@given(
    decision=st.sampled_from(ps.Decision),
    values=st.tuples(*[REPORT_VALUES] * 5),
    angle=st.one_of(st.none(), REPORT_VALUES),
    intensities=st.tuples(*[st.integers(0, 10**12)] * 3),
)
@example(ps.Decision.BIT0, (-0.0, -4e-7, -5e-7, 5.000001e-7, -0.0), None, (1, 1, 1))
def test_renderings_match_the_line_renderer(decision, values, angle, intensities):
    purity, dist_h0, dist_h90, lambda_max, lambda_min = values
    outcome = protocol.ProtocolOutcome(
        decision, 30.0, ps.stokes_from_density(MIX), purity, dist_h0, dist_h90,
        ps.Spectrum(lambda_max, lambda_min, angle), intensities,
    )
    assert outcome.to_key_value_block() == "\n".join(reference_report_lines(outcome))
    assert outcome.to_csv_row() == reference_csv_row(outcome)


class TestOutcomeRecord:
    # the field names, in order, of ProtocolOutcome when it was a frozen
    # dataclass, with the received Stokes vector where its matrix was
    FIELDS = ("decision", "alice_angle_deg", "stokes_received", "purity_received", "dist_to_h0",
              "dist_to_h90", "spectrum", "stage_intensities")

    def test_fields_in_order(self):
        assert protocol.ProtocolOutcome._fields == self.FIELDS

    def test_keyword_and_positional_construction(self):
        out = ps.run_protocol(config(eve=ps.EveConfig(10, 10, 45, enabled=True)))
        values = [getattr(out, name) for name in self.FIELDS]
        by_keyword = protocol.ProtocolOutcome(**dict(zip(self.FIELDS, values)))
        by_position = protocol.ProtocolOutcome(*values)
        for built in (by_keyword, by_position):
            assert all(getattr(built, name) is value for name, value in zip(self.FIELDS, values))
            assert built.to_key_value_block() == out.to_key_value_block()
            assert built.to_csv_row() == out.to_csv_row()

    @pytest.mark.parametrize("name", FIELDS + ("rho_received", "rho_hypothesis_0", "extra"))
    def test_attributes_cannot_be_assigned(self, name):
        out = ps.run_protocol(config())
        with pytest.raises(AttributeError):
            setattr(out, name, 0.0)

    def test_render_method_is_patchable_on_the_class(self):
        # the benchmark's tracer replaces it in the class __dict__
        assert "to_key_value_block" in protocol.ProtocolOutcome.__dict__


class TestOutcomeSerialization:
    def test_key_value_block(self):
        out = ps.run_protocol(config(eve=ps.EveConfig(10, 10, 45, enabled=True)))
        block = dict(line.split("=", 1) for line in out.to_key_value_block().splitlines())
        assert block["decision"] == "EveDetected"
        assert block["purity"] == "0.978564"
        assert block["lambda_max"] == "0.989165"
        assert block["intensity_sent"] == "100"

    def test_csv_row(self):
        out = ps.run_protocol(config(bit=0))
        row = out.to_csv_row().split(",")
        assert row[0] == "Bit0"
        assert row[4] == "1.000000"
        assert row[6:] == ["100", "100", "100"]

    def test_pure_state_never_renders_negative_zero(self):
        # Eve injecting Bob's own output state leaves the received state pure;
        # here lambda_min carries a -1.1e-16 rounding residue
        eve = ps.EveConfig(0, 781, 92.0, enabled=True)
        out = ps.run_protocol(config(theta=2.0, bit=1, n=1110, eve=eve))
        assert out.decision is ps.Decision.BIT1
        assert out.spectrum.lambda_min < 0.0
        block = out.to_key_value_block()
        assert "lambda_min=0.000000" in block.splitlines()
        assert "-0.000000" not in block + out.to_csv_row()
