"""Acceptance suite: one test per release criterion, each printing a PASS or
FAIL line so the gate can be read off the test log directly."""

import contextlib
import math

import numpy as np
import pytest

import polarsim as ps
from polarsim.cli import main
from polarsim.polarization import DensityMatrix
from polarsim.sweeps import DEFAULT_DELTAS, DEFAULT_FRACTIONS, PRESETS


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def rho(angle_deg):
    return ps.density_of_pure(angle_deg)


MIX = np.array([[0.7, 0.4464], [0.4464, 0.3]])


def test_criterion_1_worked_example_matrix():
    with criterion("criterion 1: worked-example mixture matrix"):
        m = ps.ensemble_density(ps.PhotonEnsemble(((80, 30), (20, 45)))).matrix
        assert np.max(np.abs(m - MIX)) < 1e-3


def test_criterion_2_worked_example_spectrum():
    with criterion("criterion 2: worked-example eigenvalues and principal angle"):
        spec = ps.eigendecompose(ps.ensemble_density(ps.PhotonEnsemble(((80, 30), (20, 45)))))
        assert abs(spec.lambda_max - 0.9892) < 5e-4
        assert abs(spec.lambda_min - 0.0108) < 5e-4
        assert abs(spec.principal_angle_deg - 32.93) <= 0.05


def test_criterion_3_stokes_example():
    with criterion("criterion 3: Stokes parameters of the diagonal state"):
        s = ps.stokes_from_density(DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]])))
        assert s == (1.0, 1.0, 0.0, 0.0)


def test_criterion_4_attack_detection():
    with criterion("criterion 4: equal-count attack beats intensity check, not state check"):
        out = ps.run_protocol(
            ps.ProtocolConfig(
                n_photons=100,
                alice_angle_deg=30,
                bob_bit=0,
                eve=ps.EveConfig(10, 10, 45, enabled=True),
                mode="exact",
            )
        )
        assert out.purity_received < 1 - 1e-6
        assert out.decision is ps.Decision.EVE_DETECTED
        assert ps.intensity_check(out.stage_intensities) is True


def test_criterion_5_oracle_equivalence():
    with criterion("criterion 5: sweep peak intensity matches the closed form"):
        deltas = (7.5, 15.0, 30.0, 60.0, 90.0)
        # validate the closed form against brute-force ensemble construction
        for f100 in range(0, 51, 5):
            for delta in deltas:
                comps = [(100 - f100, 10.0), (f100, 10.0 + delta)]
                comps = tuple((c, a) for c, a in comps if c > 0)
                brute = np.linalg.eigvalsh(ps.ensemble_density(ps.PhotonEnsemble(comps)).matrix).max()
                assert abs(ps.closed_form_lambda_max(f100 / 100, delta) - brute) < 1e-10
        # then check the sweep path against the validated closed form
        for delta in deltas:
            table = ps.sweep_delta_family(deltas=[delta], fraction_grid=[i / 20 for i in range(11)])
            for (d, f), rec in table.items():
                assert abs(rec.lambda_max - ps.closed_form_lambda_max(f, d)) < 1e-10


def test_criterion_6_figure_shapes():
    with criterion("criterion 6: figure-sweep monotonicity and delta ordering"):
        for name in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"):
            spec = PRESETS[name]
            records = ps.sweep_siphon(spec)
            lambdas = [r.lambda_max for r in records]
            assert all(b <= a + 1e-12 for a, b in zip(lambdas, lambdas[1:]))
            angles = [r.peak_angle_deg for r in records if r.peak_angle_deg is not None]
            lo, hi = sorted((spec.theta_deg, spec.phi_deg))
            assert abs(angles[0] - spec.theta_deg) < 1e-9
            assert all(lo - 1e-9 <= a <= hi + 1e-9 for a in angles)
            drift = [b - a for a, b in zip(angles, angles[1:])]
            toward_phi = 1.0 if spec.phi_deg >= spec.theta_deg else -1.0
            assert all(toward_phi * d >= -1e-9 for d in drift)
        table = ps.sweep_delta_family()
        for f in DEFAULT_FRACTIONS:
            if f == 0.0:
                continue
            values = [table[(d, f)].lambda_max for d in DEFAULT_DELTAS]
            assert all(b < a for a, b in zip(values, values[1:]))


def test_criterion_7_no_attack_correctness():
    with criterion("criterion 7: no-attack decisions match Bob's bit, 360/360"):
        correct = 0
        for theta in range(180):
            for bit in (0, 1):
                out = ps.run_protocol(
                    ps.ProtocolConfig(
                        n_photons=100, alice_angle_deg=float(theta), bob_bit=bit, mode="exact"
                    )
                )
                expected = ps.Decision.BIT0 if bit == 0 else ps.Decision.BIT1
                correct += out.decision is expected
        assert correct == 360


def test_criterion_8_tomography_convergence():
    with criterion("criterion 8: tomography within 0.02 Frobenius in >= 99/100 trials"):
        targets = [rho(30), DensityMatrix(np.array(
            [[0.7, 0.44641016151377546], [0.44641016151377546, 0.3]]))]
        for target in targets:
            good = 0
            for seed in range(100):
                cfg = ps.TomographyConfig(photons_per_basis=10**5, seed=seed)
                rho_hat = ps.density_from_stokes(ps.reconstruct(ps.simulate_counts(target, cfg)))
                good += ps.matrix_distance(rho_hat, target) <= 0.02
            assert good >= 99


def test_criterion_9_property_suites():
    with criterion("criterion 9: invariants on 1000 randomized inputs each"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            s = (rng.uniform() ** (1 / 3)) * direction
            m = ps.density_from_stokes(ps.StokesVector(1.0, *s))
            # construction invariants
            mat = m.matrix
            assert abs(np.trace(mat).real - 1) < 1e-12
            assert abs(mat[0, 1] - np.conj(mat[1, 0])) < 1e-12
            assert np.linalg.eigvalsh(mat).min() >= -1e-10
            # Stokes round trip
            back = ps.density_from_stokes(ps.stokes_from_density(m))
            assert np.max(np.abs(back.matrix - mat)) < 1e-12
            # eigenpair residuals; the minor axis is 90 deg from the principal
            spec = ps.eigendecompose(m)
            if spec.principal_angle_deg is None:
                continue
            for lam, angle in (
                (spec.lambda_max, spec.principal_angle_deg),
                (spec.lambda_min, spec.principal_angle_deg + 90.0),
            ):
                if abs(mat[0, 1].imag) < 1e-14:  # axis angles only defined for real states
                    v = np.array([math.cos(math.radians(angle)), math.sin(math.radians(angle))])
                    assert np.max(np.abs(mat.real @ v - lam * v)) < 1e-10
        # rotation invariance of spectra
        for _ in range(1000):
            counts = [int(c) for c in rng.integers(1, 60, size=3)]
            angles = rng.uniform(0, 180, size=3)
            delta = rng.uniform(-360, 360)
            e = ps.PhotonEnsemble(tuple(zip(counts, angles)))
            before = ps.eigendecompose(ps.ensemble_density(e))
            after = ps.eigendecompose(ps.ensemble_density(
                ps.PhotonEnsemble(tuple((c, a + delta) for c, a in e.components))))
            assert abs(after.lambda_max - before.lambda_max) < 1e-12
            assert abs(after.lambda_min - before.lambda_min) < 1e-12


def test_criterion_10_reproducible_sweep_output(tmp_path, capsys):
    with criterion("criterion 10: byte-identical fig4 sweep CSV across runs"):
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["sweep", "--preset", "fig4", "--mode", "exact", "--out", str(d1)]) == 0
        assert main(["sweep", "--preset", "fig4", "--mode", "exact", "--out", str(d2)]) == 0
        capsys.readouterr()
        assert (d1 / "fig4.csv").read_bytes() == (d2 / "fig4.csv").read_bytes()
