"""Sampled mode on integer populations against the photon-stream path it
replaced.

The reference keeps a list of (count, angle) populations, takes each of
Eve's siphons from Alice's population (the first in the list), builds the
received matrix with ensemble_density, draws counts from born_probabilities,
and keeps the raw estimate where DensityMatrix accepts it; otherwise it
reconstructs with np.linalg.eigh, clipping the negative eigenvalue and
renormalizing the trace. Counts must be identical,
rho_received within TOL, reported values within TOL, and decisions equal
wherever no value is within MARGIN of a decision threshold.

The golden digests cover rendered CLI output: 200 sampled `polarsim protocol`
blocks and 200 `polarsim tomography --mix` outputs, recorded from the stream
path, where a value that rounded to zero could print as -0.000000; that was
recorded as 0.000000. The protocol digest was recorded again when sampled
Eve's stage-2 siphon began to take only Alice's photons, as exact mode's
does; that changed every block with both siphons non-zero.
"""

import contextlib
import hashlib
import io
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polarsim as ps
from polarsim import tomography
from polarsim.cli import main
from polarsim.tomography import sample_counts

TOL = 1e-12
MARGIN = 1e-9
# principal angles are compared where the coherence |rho_01| is at least
# this; below it the reference's eigenvector loses digits to cancellation
MIN_COHERENCE = 1e-6

PROTOCOL_SHA256 = "be46ca09f9797aa1c685e596f329ca6c5dc6837c777ce510225dfc717ca7b5c1"
TOMOGRAPHY_SHA256 = "3685d706da7ceb321f619f2c305519f405ca072d1b20873b0394b6b0f95426de"


def reference_reconstruct(counts):
    s = ps.stokes_estimate(counts)
    raw = 0.5 * np.array([[1.0 + s.s3, s.s1 - 1j * s.s2], [s.s1 + 1j * s.s2, 1.0 - s.s3]])
    # kept exactly when DensityMatrix's own rule accepts it: eigh's smallest
    # eigenvalue can sit on the other side of -PSD_TOL
    try:
        ps.DensityMatrix(raw)
        return raw
    except ValueError:
        pass
    eigvals, eigvecs = np.linalg.eigh(raw)
    clipped = np.clip(eigvals, 0.0, None)
    clipped /= clipped.sum()
    return (eigvecs * clipped) @ eigvecs.conj().T


def reference(config):
    """(counts, rho_received) of a sampled run along the photon-stream path."""
    rng = np.random.default_rng(config.tomography.seed)
    eve = config.eve
    stream = [(config.n_photons, config.alice_angle_deg)]

    def eve_stage(stream, siphon):
        if not eve.enabled or siphon == 0:
            return stream
        (alice, angle), rest = stream[0], stream[1:]
        if siphon > alice:
            raise ValueError("siphon count exceeds Alice's photons at this stage")
        return [(alice - siphon, angle)] + rest + [(siphon, eve.injection_angle_deg)]

    stream = eve_stage(stream, eve.siphon_stage1)
    stream = [(c, ps.normalize_angle(a + 90.0 * config.bob_bit)) for c, a in stream]
    stream = eve_stage(stream, eve.siphon_stage2)
    rho_true = ps.ensemble_density(ps.PhotonEnsemble(tuple((c, a) for c, a in stream if c > 0)))
    p_h, _, p_d, _, p_r, _ = ps.born_probabilities(rho_true)
    n = config.tomography.photons_per_basis
    n_h, n_d, n_r = (int(rng.binomial(n, p)) for p in (p_h, p_d, p_r))
    counts = ps.MeasurementCounts(n_h, n - n_h, n_d, n - n_d, n_r, n - n_r)
    return counts, ps.DensityMatrix(reference_reconstruct(counts))


def run_with_counts(config):
    drawn = []

    def spy(*args):
        drawn.append(sample_counts(*args))
        return drawn[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tomography, "sample_counts", spy)
        outcome = ps.run_protocol(config)
    return drawn[0], outcome


def angle_gap(a, b):
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


@st.composite
def sampled_configs(draw):
    n = draw(st.one_of(st.integers(1, 20), st.integers(1, 100_000)))
    eve = ps.EveConfig.disabled()
    if draw(st.booleans()):
        siphon1 = draw(st.integers(0, n))
        eve = ps.EveConfig(
            siphon_stage1=siphon1,
            siphon_stage2=draw(st.integers(0, n - siphon1)),
            injection_angle_deg=draw(st.floats(0.0, 180.0, exclude_max=True)),
            enabled=True,
        )
    return ps.ProtocolConfig(
        n_photons=n,
        alice_angle_deg=draw(st.floats(0.0, 180.0, exclude_max=True)),
        bob_bit=draw(st.integers(0, 1)),
        eve=eve,
        mode="sampled",
        tomography=ps.TomographyConfig(
            photons_per_basis=draw(st.sampled_from((1, 2, 10, 1_000, 100_000))),
            seed=draw(st.integers(0, 2**32 - 1)),
        ),
    )


@settings(max_examples=400, deadline=None)
@given(sampled_configs())
# an estimate on the PSD bound, which eigh keeps and DensityMatrix refuses
@example(ps.ProtocolConfig(
    n_photons=1, alice_angle_deg=0.0, bob_bit=0, mode="sampled",
    tomography=ps.TomographyConfig(photons_per_basis=100_000, seed=3560),
))
def test_sampled_run_matches_the_stream_path(config):
    counts, outcome = run_with_counts(config)
    ref_counts, ref_rho = reference(config)
    assert counts == ref_counts
    assert np.abs(outcome.rho_received.matrix - ref_rho.matrix).max() <= TOL

    theta = config.alice_angle_deg
    purity = ps.purity(ref_rho)
    d0 = ps.matrix_distance(ref_rho, ps.density_of_pure(theta))
    d90 = ps.matrix_distance(ref_rho, ps.density_of_pure(theta + 90.0))
    assert outcome.purity_received == pytest.approx(purity, abs=TOL)
    assert outcome.dist_to_h0 == pytest.approx(d0, abs=TOL)
    assert outcome.dist_to_h90 == pytest.approx(d90, abs=TOL)
    assert outcome.stage_intensities == (config.n_photons,) * 3

    spectrum = ps.eigendecompose(ref_rho)
    assert outcome.spectrum.lambda_max == pytest.approx(spectrum.lambda_max, abs=TOL)
    assert outcome.spectrum.lambda_min == pytest.approx(spectrum.lambda_min, abs=TOL)
    assert (outcome.spectrum.principal_angle_deg is None) == (spectrum.principal_angle_deg is None)
    if spectrum.principal_angle_deg is not None:
        coherence = abs(ref_rho.matrix[0, 1])
        if coherence == 0.0:
            assert outcome.spectrum.principal_angle_deg == spectrum.principal_angle_deg
        elif coherence >= MIN_COHERENCE:
            assert angle_gap(outcome.spectrum.principal_angle_deg,
                             spectrum.principal_angle_deg) <= 1e-9

    eps_d, eps_p = config.resolved_thresholds()
    near = [abs(purity - (1.0 - eps_p)), abs(d0 - eps_d), abs(d90 - eps_d), abs(d0 - d90)]
    if min(near) >= MARGIN:
        assert outcome.decision is ps.decide(purity, d0, d90, eps_d, eps_p)


@pytest.mark.parametrize("counts, pure", [
    (ps.MeasurementCounts(1, 0, 1, 0, 1, 0), True),
    (ps.MeasurementCounts(100, 0, 100, 0, 50, 50), True),
    (ps.MeasurementCounts(9, 1, 8, 2, 7, 3), True),
    (ps.MeasurementCounts(10**9, 0, 0, 10**9, 10**9, 0), True),
    (ps.MeasurementCounts(9, 1, 5, 5, 5, 5), False),
    (ps.MeasurementCounts(10, 10, 10, 10, 10, 10), False),
])
def test_reconstruction_matches_the_eigh_path(counts, pure):
    # an estimate with |r| > 1 comes back as the pure state r/|r|, as
    # clipping the eigh spectrum gives; any other is kept as it is
    rho = ps.reconstruct(counts)
    assert np.abs(rho.matrix - reference_reconstruct(counts)).max() <= TOL
    assert (ps.purity(rho) == pytest.approx(1.0, abs=TOL)) is pure


def protocol_argvs():
    rng = random.Random("sampled-protocol-golden")
    argvs = []
    for _ in range(200):
        n = round(10 ** rng.uniform(1.0, 5.0))
        theta = 0.5 * rng.randrange(360)
        bit = rng.randrange(2)
        s1 = s2 = 0
        phi = 0.0
        if rng.random() < 0.7:
            phi = theta + 90.0 * bit if rng.random() < 0.2 else 0.5 * rng.randrange(360)
            s1 = rng.randint(0, n // 2)
            s2 = rng.randint(0, n // 2)
        # Eve's angle is refused where she siphons nothing
        eve_angle = ["--eve-angle", str(phi)] if s1 or s2 else []
        argvs.append([
            "protocol", "--theta", str(theta), "--bit", str(bit), "--photons", str(n),
            "--eve-siphon1", str(s1), "--eve-siphon2", str(s2), *eve_angle,
            "--mode", "sampled", "--seed", str(rng.getrandbits(32)),
            "--photons-per-basis", str(rng.choice((10, 1_000, 100_000))),
        ])
    return argvs


def tomography_argvs():
    rng = random.Random("tomography-mix-golden")
    argvs = []
    for _ in range(200):
        mix = ",".join(f"{rng.randint(1, 1000)}@{0.5 * rng.randrange(360)}"
                       for _ in range(rng.randint(1, 3)))
        argvs.append([
            "tomography", "--mix", mix, "--seed", str(rng.getrandbits(32)),
            "--photons-per-basis", str(rng.choice((10, 100, 1_000, 100_000))),
        ])
    return argvs


@pytest.mark.parametrize("argvs, digest", [
    (protocol_argvs, PROTOCOL_SHA256),
    (tomography_argvs, TOMOGRAPHY_SHA256),
])
def test_cli_output_golden(argvs, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in argvs():
            assert main(argv) == 0, argv
    text = out.getvalue()
    assert "-0.000000" not in text
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def sampled(n, s1=0, s2=0):
    return ps.ProtocolConfig(
        n_photons=n, alice_angle_deg=30.0, bob_bit=0, mode="sampled",
        eve=ps.EveConfig(s1, s2, 45.0, enabled=True),
        tomography=ps.TomographyConfig(photons_per_basis=100, seed=1),
    )


def test_estimate_on_the_psd_bound_runs():
    # counts (100000, 0, 50000, 50000, 50001, 49999) give |r| equal to the
    # float 1 + 2e-10, whose raw matrix DensityMatrix rejects; the
    # reconstruction projects it onto the sphere instead of raising
    outcome = ps.run_protocol(ps.ProtocolConfig(
        n_photons=1, alice_angle_deg=0.0, bob_bit=0, mode="sampled",
        tomography=ps.TomographyConfig(seed=3560),
    ))
    assert outcome.decision is ps.Decision.BIT0
    assert outcome.purity_received == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("s1, s2", [(1, 0), (0, 1), (10, 10)])
def test_huge_beam_with_eve_runs(s1, s2):
    # sampled mode draws no siphon, so no beam is too large for it
    n = 10**9
    assert ps.run_protocol(sampled(n, s1, s2)).stage_intensities == (n, n, n)


def test_huge_beam_limits():
    # neither a beam without Eve nor one with her has a size limit
    n = 10**10
    assert ps.run_protocol(sampled(n)).decision is ps.Decision.BIT0
    assert ps.run_protocol(sampled(n, 10, 10)).stage_intensities == (n, n, n)


def test_siphon_beyond_the_beam_is_refused():
    with pytest.raises(ValueError, match="siphon count 101 exceeds the 100 untouched"):
        ps.run_protocol(sampled(100, 0, 101))
    # stage 2 siphons only what stage 1 left of Alice's photons
    with pytest.raises(ValueError, match="siphon count 60 exceeds the 40 untouched"):
        ps.run_protocol(sampled(100, 60, 60))
    assert ps.run_protocol(sampled(100, 60, 40)).stage_intensities == (100, 100, 100)


def test_born_probabilities_repeat_the_matrix_path():
    rng = random.Random(4)
    for _ in range(2_000):
        n = rng.randint(1, 10**6)
        a = rng.randint(0, n)
        b = rng.randint(0, n - a)
        populations = [(a, 0.5 * rng.randrange(360)), (b, rng.uniform(0, 180)),
                       (n - a - b, rng.uniform(0, 180))]
        rho = ps.ensemble_density(ps.PhotonEnsemble(tuple(p for p in populations if p[0])))
        p_h, _, p_d, _, p_r, _ = ps.born_probabilities(rho)
        assert tomography._born_probabilities(populations, n) == (p_h, p_d, p_r)


@pytest.mark.parametrize("n, theta, bit, s1, s2, phi", [
    (100, 30.0, 0, 30, 30, 45.0),
    (1000, 10.0, 1, 100, 200, 80.0),
    (500, 75.0, 0, 50, 150, 140.0),
])
def test_sampled_mean_is_exact_mode(n, theta, bit, s1, s2, phi):
    # both modes receive the same populations, so over K seeds the mean of
    # the reconstructed Stokes vectors lies within a few sigma of exact
    # mode's, sigma = 1/sqrt(N K) bounding each component's binomial noise
    k_runs, per_basis = 300, 100_000
    eve = ps.EveConfig(s1, s2, phi, enabled=True)

    def stokes(mode, seed=0):
        outcome = ps.run_protocol(ps.ProtocolConfig(
            n, theta, bit, eve, mode, ps.TomographyConfig(per_basis, seed),
        ))
        return np.array(ps.stokes_from_density(outcome.rho_received)[1:])

    exact = stokes("exact")
    # well inside the sphere, so no reconstruction is projected onto it
    assert np.linalg.norm(exact) < 0.98
    mean = np.mean([stokes("sampled", seed) for seed in range(k_runs)], axis=0)
    z = (mean - exact) * math.sqrt(per_basis * k_runs)
    assert np.abs(z).max() <= 5.0, z
