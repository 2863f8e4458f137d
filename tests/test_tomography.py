import itertools
import math
import random
import re

import numpy as np
import pytest

import polarsim as ps
from polarsim.polarization import DensityMatrix, outside_poincare_sphere, stokes_matrix
from polarsim.tomography import measure, reconstruct_from_stokes


def rho(angle_deg):
    return ps.density_of_pure(angle_deg)


MIX = DensityMatrix(np.array([[0.7, 0.44641016151377546], [0.44641016151377546, 0.3]]))


class TestBornProbabilities:
    def test_pure_30(self):
        p_h, p_v, *_ = ps.born_probabilities(rho(30))
        assert p_h == pytest.approx(0.75, abs=1e-12)  # cos^2(30 deg)
        assert p_v == pytest.approx(0.25, abs=1e-12)

    def test_diagonal_state(self):
        _, _, p_d, p_a, _, _ = ps.born_probabilities(rho(45))
        assert p_d == pytest.approx(1.0, abs=1e-12)
        assert p_a == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        probs = ps.born_probabilities(DensityMatrix(np.eye(2) / 2))
        assert probs == pytest.approx((0.5,) * 6, abs=1e-12)

    def test_complements_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            angle = rng.uniform(0, 180)
            p = ps.born_probabilities(rho(angle))
            assert p[0] + p[1] == pytest.approx(1.0, abs=1e-12)
            assert p[2] + p[3] == pytest.approx(1.0, abs=1e-12)
            assert p[4] + p[5] == pytest.approx(1.0, abs=1e-12)


class TestSimulateCounts:
    def test_deterministic_outcome(self):
        counts = ps.simulate_counts(rho(0), ps.TomographyConfig(photons_per_basis=1000, seed=9))
        assert counts.n_h == 1000
        assert counts.n_v == 0

    def test_same_seed_same_counts(self):
        cfg = ps.TomographyConfig(photons_per_basis=100, seed=42)
        assert ps.simulate_counts(rho(30), cfg) == ps.simulate_counts(rho(30), cfg)

    def test_large_sample_frequency(self):
        cfg = ps.TomographyConfig(photons_per_basis=10**6, seed=1)
        counts = ps.simulate_counts(rho(30), cfg)
        # 3 sigma binomial interval around p_h = 0.75
        assert 0.7487 <= counts.n_h / 10**6 <= 0.7513

    def test_totals_per_basis(self):
        cfg = ps.TomographyConfig(photons_per_basis=500, seed=4)
        counts = ps.simulate_counts(MIX, cfg)
        assert counts.n_h + counts.n_v == 500
        assert counts.n_d + counts.n_a == 500
        assert counts.n_r + counts.n_l == 500


def test_numpy_binomial_stream_is_the_one_the_goldens_were_recorded_on():
    # every sampled golden rests on default_rng's binomial stream, drawn one
    # scalar per basis as sample_counts draws it; a numpy release that
    # changes the stream fails here, under a name that says so
    rng = np.random.default_rng(0)
    draws = [int(rng.binomial(100_000, p)) for p in (0.5, 0.25, 0.9330127018922194, 1e-3)]
    assert draws == [50198, 25011, 93289, 101], (
        f"numpy {np.__version__} draws a different default_rng(0) binomial stream")


class TestMeasure:
    def test_counts_of_the_mixture_matrix(self):
        # measure draws the counts simulate_counts draws from the matrix of
        # the same mixture
        rng = random.Random(5)
        for _ in range(300):
            components = [(rng.randint(0, 10**6), rng.uniform(0, 360))
                          for _ in range(rng.randint(1, 4))]
            ens = ps.PhotonEnsemble(tuple(components))
            if ens.total == 0:
                continue
            cfg = ps.TomographyConfig(rng.choice((1, 10, 1_000, 10**6)), rng.getrandbits(32))
            expected = ps.simulate_counts(ps.ensemble_density(ens), cfg)
            assert measure(ens.components, ens.total, cfg) == expected

    def test_empty_mixture_refused(self):
        with pytest.raises(ValueError, match="^ensemble has no photons$"):
            measure(((0, 30.0), (0, 45.0)), 0, ps.TomographyConfig())


def test_photons_per_basis_must_be_positive():
    with pytest.raises(ValueError, match="photons_per_basis must be >= 1"):
        ps.TomographyConfig(photons_per_basis=0)


def test_photons_per_basis_fits_numpy_int64():
    limit = np.iinfo(np.int64).max
    counts = ps.simulate_counts(MIX, ps.TomographyConfig(photons_per_basis=int(limit)))
    assert counts.n_h + counts.n_v == limit
    with pytest.raises(ValueError, match=f"photons_per_basis must be at most {limit}, got"):
        ps.TomographyConfig(photons_per_basis=int(limit) + 1)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", None])
def test_seed_must_be_an_integer(seed):
    # numpy's SeedSequence would raise a TypeError only at draw time
    with pytest.raises(ValueError, match="seed must be an integer, got"):
        ps.TomographyConfig(seed=seed)


def test_seed_must_be_non_negative():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        ps.TomographyConfig(seed=-1)


@pytest.mark.parametrize("index", range(6))
def test_negative_count_is_named(index):
    # the first negative count names the error, however many there are
    counts = [10] * 6
    counts[index:] = [-1] * (6 - index)
    name = ("n_h", "n_v", "n_d", "n_a", "n_r", "n_l")[index]
    with pytest.raises(ValueError, match=f"^{name} must be non-negative$"):
        ps.MeasurementCounts(*counts)


@pytest.mark.parametrize("bad", [True, 1.5, math.nan, "1", None],
                         ids=["bool", "float", "nan", "str", "none"])
def test_counts_must_be_integers(bad):
    # a bool, float or NaN count once built and reconstructed, and a string or
    # None raised TypeError from the sign test, which the type test precedes
    message = f"measurement counts must be integers, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ps.MeasurementCounts(10, -1, bad, 10, 10, 10)


def test_numpy_counts_are_stored_as_python_ints():
    counts = ps.MeasurementCounts(np.int64(75), 25, np.uint32(93), 7, np.int8(50), 50)
    assert counts == ps.MeasurementCounts(75, 25, 93, 7, 50, 50)
    assert {type(n) for n in vars(counts).values()} == {int}


def test_numpy_and_large_seeds_are_accepted():
    for seed in (np.int64(7), np.uint32(7), 7):
        counts = ps.simulate_counts(MIX, ps.TomographyConfig(photons_per_basis=100, seed=seed))
        assert counts == ps.simulate_counts(MIX, ps.TomographyConfig(100, seed=7))
    # SeedSequence takes entropy of any size
    ps.simulate_counts(MIX, ps.TomographyConfig(photons_per_basis=100, seed=2**100))


class TestStokesEstimate:
    def test_direct_frequencies(self):
        s = ps.stokes_estimate(ps.MeasurementCounts(75, 25, 93, 7, 50, 50))
        assert s == pytest.approx((1.0, 0.86, 0.0, 0.5))

    def test_all_equal_is_maximally_mixed(self):
        s = ps.stokes_estimate(ps.MeasurementCounts(10, 10, 10, 10, 10, 10))
        assert s == (1.0, 0.0, 0.0, 0.0)

    def test_pure_basis_statistics(self):
        s = ps.stokes_estimate(ps.MeasurementCounts(100, 0, 50, 50, 50, 50))
        assert s == (1.0, 0.0, 0.0, 1.0)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="D/A"):
            ps.stokes_estimate(ps.MeasurementCounts(10, 10, 0, 0, 10, 10))

    @pytest.mark.parametrize("counts, basis", [
        ((0, 0, 10, 10, 10, 10), "H/V"),
        ((10, 10, 10, 10, 0, 0), "R/L"),
    ], ids=["H/V", "R/L"])
    def test_other_empty_basis_rejected(self, counts, basis):
        with pytest.raises(ValueError, match=f"no photons recorded in the {basis} basis"):
            ps.stokes_estimate(ps.MeasurementCounts(*counts))


class TestReconstruct:
    def test_returns_the_physical_stokes_vector(self):
        # a kept estimate comes back as it is, a projected one as r/|r|
        kept = ps.MeasurementCounts(9, 1, 5, 5, 5, 5)
        assert ps.reconstruct(kept) == ps.stokes_estimate(kept)
        s = ps.reconstruct(ps.MeasurementCounts(100, 0, 100, 0, 50, 50))
        assert type(s) is ps.StokesVector and s.s0 == 1.0
        assert math.hypot(s.s1, s.s2, s.s3) == pytest.approx(1.0, abs=1e-15)

    def test_near_exact_counts(self):
        # counts from rounded Born probabilities of rho(30)
        counts = ps.MeasurementCounts(750, 250, 933, 67, 500, 500)
        rho_hat = ps.density_from_stokes(ps.reconstruct(counts))
        assert ps.matrix_distance(rho_hat, rho(30)) < 2e-3

    def test_nonphysical_counts_are_projected(self):
        counts = ps.MeasurementCounts(100, 0, 100, 0, 50, 50)
        rho_hat = ps.density_from_stokes(ps.reconstruct(counts))
        eigvals = np.linalg.eigvalsh(rho_hat.matrix)
        assert eigvals.min() >= -1e-12
        assert np.trace(rho_hat.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_all_equal_counts(self):
        s = ps.reconstruct(ps.MeasurementCounts(10, 10, 10, 10, 10, 10))
        rho_hat = ps.density_from_stokes(s)
        assert np.allclose(rho_hat.matrix, np.eye(2) / 2, atol=1e-12)

    def test_exact_stokes_round_trip(self):
        # infinite-sample limit: exact Stokes input reproduces the state
        rng = np.random.default_rng(21)
        for _ in range(200):
            angle = rng.uniform(0, 180)
            m = rho(angle)
            back = ps.density_from_stokes(reconstruct_from_stokes(ps.stokes_from_density(m)))
            assert np.allclose(m.matrix, back.matrix, atol=1e-12)

    def test_kept_raw_estimate_converts_back(self):
        # |r| - 1 = 1.0e-10 keeps the raw estimate, and density_from_stokes
        # accepts the Stokes vector reconstruct returned
        counts = ps.MeasurementCounts(530877, 469123, 999045, 955, 500836, 499164)
        s = ps.reconstruct(counts)
        assert s == ps.stokes_estimate(counts)
        assert math.sqrt(s.s1 * s.s1 + s.s2 * s.s2 + s.s3 * s.s3) > 1.0
        back = ps.density_from_stokes(s)
        assert np.allclose(back.matrix, stokes_matrix(s), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    def test_pure_axis_counts_never_raise(self, n):
        # all counts on one outcome of a basis and the other two bases off
        # balance by 0-3 photons: |r| lies at or just above 1, where the
        # keep-or-project rule must agree with DensityMatrix's
        for axis, pole, k1, k2 in itertools.product(range(3), (n, 0), range(-3, 4), range(-3, 4)):
            pairs = [(n // 2 + k1, n - n // 2 - k1), (n // 2 + k2, n - n // 2 - k2)]
            pairs.insert(axis, (pole, n - pole))
            s = ps.reconstruct(ps.MeasurementCounts(*itertools.chain(*pairs)))
            rho_hat = ps.density_from_stokes(s)
            assert np.linalg.eigvalsh(rho_hat.matrix).min() >= -ps.polarization.PSD_TOL

    def test_keep_or_project_rule_is_density_matrix_rule(self):
        # Stokes vectors around |r| = 1 + 2 PSD_TOL, some with a zero
        # component: outside_poincare_sphere refuses exactly the matrices
        # DensityMatrix refuses
        rng = random.Random(8)
        refused = 0
        for _ in range(20_000):
            d = [rng.gauss(0.0, 1.0) for _ in range(3)]
            if rng.random() < 0.3:
                d[rng.randrange(3)] = 0.0
            scale = (1.0 + 2e-10 * (1.0 + rng.uniform(-1e-3, 1e-3))) / math.hypot(*d)
            s = ps.StokesVector(1.0, *(x * scale for x in d))
            try:
                DensityMatrix(stokes_matrix(s))
            except ValueError:
                refused += 1
                assert outside_poincare_sphere(s)
            else:
                assert not outside_poincare_sphere(s)
        assert 0 < refused < 20_000

    def test_adversarial_counts_stay_physical(self):
        adversarial = [
            ps.MeasurementCounts(1, 0, 1, 0, 1, 0),
            ps.MeasurementCounts(0, 1, 0, 1, 0, 1),
            ps.MeasurementCounts(10**9, 0, 0, 10**9, 10**9, 0),
            ps.MeasurementCounts(1, 0, 0, 1, 1, 1),
        ]
        for counts in adversarial:
            rho_hat = ps.density_from_stokes(ps.reconstruct(counts))
            assert np.trace(rho_hat.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho_hat.matrix).min() >= -1e-10


class TestStatisticalConsistency:
    # error bound 3 * sqrt(3/(4N)) * 2 verified empirically before freezing:
    # max observed distance over 200 seeds was under half the bound at each N
    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    def test_reconstruction_error_bound(self, n):
        bound = 3 * math.sqrt(3 / (4 * n)) * 2
        within = 0
        for seed in range(200):
            cfg = ps.TomographyConfig(photons_per_basis=n, seed=seed)
            rho_hat = ps.density_from_stokes(ps.reconstruct(ps.simulate_counts(MIX, cfg)))
            if ps.matrix_distance(rho_hat, MIX) <= bound:
                within += 1
        assert within >= 198  # >= 99% of trials


class TestCountsCsv:
    def test_row_format(self):
        counts = ps.MeasurementCounts(75, 25, 93, 7, 50, 50)
        assert counts.to_csv_row() == "75,25,93,7,50,50"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ps.MeasurementCounts(-1, 0, 1, 1, 1, 1)
