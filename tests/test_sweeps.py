import collections.abc
import dataclasses
import functools
import hashlib
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarsim as ps
from polarsim.sweeps import (
    DEFAULT_DELTAS,
    DEFAULT_FRACTIONS,
    DELTA_FAMILY_CSV_HEADER,
    PRESET_TOTALS,
    PRESETS,
    SWEEP_CSV_HEADER,
    DeltaFamilyTable,
    SweepTable,
    _decimal_cells,
    _exact_records,
    write_delta_family_csv,
)
from polarsim.polarization import linear_stokes
from polarsim.protocol import EveConfig, ProtocolConfig
from polarsim.tomography import TomographyConfig

INT64_MAX = int(np.iinfo(np.int64).max)


class TestSweepSpec:
    def test_odd_totals_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ps.SweepSpec(theta_deg=30, phi_deg=45, siphon_totals=(0, 5))

    def test_totals_above_photon_budget_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            ps.SweepSpec(theta_deg=30, phi_deg=45, n_photons=10, siphon_totals=(12,))

    def test_non_increasing_totals_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            ps.SweepSpec(theta_deg=30, phi_deg=45, siphon_totals=(10, 10))

    def test_non_positive_photon_budget_rejected(self):
        with pytest.raises(ValueError, match="n_photons must be positive"):
            ps.SweepSpec(theta_deg=30, phi_deg=45, n_photons=0)

    @pytest.mark.parametrize("total", [2.5, 4.0, True, False, "2"])
    def test_non_integer_totals_rejected(self, total):
        # int() would truncate a float total and count a bool as 0 or 1
        with pytest.raises(ValueError, match="siphon totals must be integers, got"):
            ps.SweepSpec(theta_deg=30, phi_deg=45, siphon_totals=(0, total))

    def test_numpy_integer_totals_stored_as_int(self):
        spec = ps.SweepSpec(theta_deg=30, phi_deg=45, siphon_totals=np.arange(0, 6, 2))
        assert spec.siphon_totals == (0, 2, 4)
        assert all(type(t) is int for t in spec.siphon_totals)
        assert [r.siphon_total for r in ps.sweep_siphon(spec)] == [0, 2, 4]

    def test_a_bad_total_is_reported_before_the_order(self):
        with pytest.raises(ValueError, match="even integers, got 5"):
            ps.SweepSpec(theta_deg=30, phi_deg=45, siphon_totals=(4, 2, 5))
        with pytest.raises(ValueError, match="siphon total 12 exceeds"):
            ps.SweepSpec(theta_deg=30, phi_deg=45, n_photons=10, siphon_totals=(4, 2, 12))

    @pytest.mark.parametrize("fields, message", [
        ({"bob_bit": 0.5}, "bob_bit must be 0 or 1"),
        ({"bob_bit": 2}, "bob_bit must be 0 or 1"),
        ({"bob_bit": True}, "bob_bit must be 0 or 1"),
        ({"bob_bit": 1.0}, "bob_bit must be 0 or 1"),
        ({"mode": "foo"}, "mode must be 'exact' or 'sampled', got 'foo'"),
        ({"mode": "sampled", "seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"mode": "sampled", "seed": -1}, "seed must be non-negative, got -1"),
    ], ids=["bit-half", "bit-2", "bit-bool", "bit-float", "mode", "seed-float", "seed-negative"])
    def test_transmission_checked_by_its_protocol_config(self, fields, message):
        # the spec's base ProtocolConfig refuses what a run would misread
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ps.SweepSpec(theta_deg=30, phi_deg=45, siphon_totals=(0, 20), **fields)

    @pytest.mark.parametrize("totals, message", [
        ((3, 2, 4), "siphon totals must be non-negative even integers, got 3"),
        ((0, 2, 5, 4), "siphon totals must be non-negative even integers, got 5"),
        ((0, 2, 4, 7), "siphon totals must be non-negative even integers, got 7"),
        ((0, -2, 4), "siphon totals must be non-negative even integers, got -2"),
        ((4, 12, 2), "siphon total 12 exceeds n_photons 10"),
        ((0, 2, INT64_MAX + 1), f"siphon total {INT64_MAX + 1} exceeds n_photons 10"),
        ((0, -INT64_MAX - 3, 2),
         f"siphon totals must be non-negative even integers, got {-INT64_MAX - 3}"),
        ((0, 2.5, 3), "siphon totals must be integers, got 2.5"),
        ((3, 2.5), "siphon totals must be non-negative even integers, got 3"),
        ((0, True, 3), "siphon totals must be integers, got True"),
        (np.array([0, 2, 5, 4]), "siphon totals must be non-negative even integers, got 5"),
        ((0, np.int64(12), 2), "siphon total 12 exceeds n_photons 10"),
        ([0, 2, 5, 4], "siphon totals must be non-negative even integers, got 5"),
        ((4, 2), "siphon totals must be strictly increasing"),
        ([2, 2], "siphon totals must be strictly increasing"),
        (np.array([0, 4, 2]), "siphon totals must be strictly increasing"),
    ], ids=["odd-start", "odd-middle", "odd-end", "negative", "above-budget-middle",
            "above-int64", "below-int64", "float-before-odd", "odd-before-float", "bool",
            "numpy-array", "numpy-int", "list", "decreasing", "repeated-list",
            "decreasing-array"])
    def test_first_bad_total_in_order_is_named(self, totals, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ps.SweepSpec(theta_deg=30, phi_deg=45, n_photons=10, siphon_totals=totals)

    @pytest.mark.parametrize("totals", [
        [0, 2, 10], (0, np.int64(2), np.uint8(10)), np.array([0, 2, 10]), iter((0, 2, 10)),
    ], ids=["list", "mixed-numpy", "array", "iterator"])
    def test_totals_stored_as_a_tuple_of_ints(self, totals):
        spec = ps.SweepSpec(theta_deg=30, phi_deg=45, n_photons=10, siphon_totals=totals)
        assert spec.siphon_totals == (0, 2, 10)
        assert all(type(t) is int for t in spec.siphon_totals)

    def test_totals_at_the_int64_limit(self):
        spec = ps.SweepSpec(theta_deg=30, phi_deg=45, n_photons=INT64_MAX,
                            siphon_totals=(0, INT64_MAX - 1))
        assert spec.siphon_totals == (0, INT64_MAX - 1)
        with pytest.raises(ValueError, match=f"even integers, got {INT64_MAX}$"):
            ps.SweepSpec(theta_deg=30, phi_deg=45, n_photons=INT64_MAX,
                         siphon_totals=(0, INT64_MAX))

    @settings(max_examples=300, deadline=None)
    @given(theta=st.floats(-720.0, 720.0) | st.integers(-720, 720),
           phi=st.floats(-720.0, 720.0) | st.integers(-720, 720),
           bit=st.sampled_from([0, 1]), n=st.integers(1, INT64_MAX), share=st.floats(0.0, 1.0),
           mode=st.sampled_from(["exact", "sampled"]), seed=st.integers(0, 2**70),
           point_seed=st.integers(0, 2**32 - 1))
    def test_point_is_the_base_config_with_its_siphons_and_seed(
            self, theta, phi, bit, n, share, mode, seed, point_seed):
        total = min(2 * round(share * n / 2), n - n % 2)
        spec = ps.SweepSpec(theta, phi, bit, n, (total,), mode, seed)
        # the base config as 0.8.0's SweepSpec.__post_init__ built it, and a
        # point as its _sampled_point derived one from it
        base = ProtocolConfig(n, theta, bit, EveConfig(0, 0, phi), mode,
                              TomographyConfig(seed=seed))
        expected = dataclasses.replace(
            base,
            eve=dataclasses.replace(base.eve, siphon_stage1=total // 2, siphon_stage2=total // 2,
                                    enabled=total > 0),
            tomography=dataclasses.replace(base.tomography, seed=point_seed),
        )
        point = spec.point(total, point_seed)
        assert point == expected and repr(point) == repr(expected)
        assert spec.point(0, spec.seed) == base and repr(spec.point(0, spec.seed)) == repr(base)

    def test_spec_holds_no_config(self):
        assert "config" not in [field.name for field in dataclasses.fields(ps.SweepSpec)]

    def test_photon_budget_fits_numpy_int64(self):
        limit = int(np.iinfo(np.int64).max)
        spec = ps.SweepSpec(theta_deg=30, phi_deg=45, n_photons=limit, siphon_totals=(0, 2))
        assert [r.siphon_total for r in ps.sweep_siphon(spec)] == [0, 2]
        with pytest.raises(ValueError, match=f"n_photons must be at most {limit}, got"):
            ps.SweepSpec(theta_deg=30, phi_deg=45, n_photons=limit + 1)


def _mixture(f):
    return ps.mixture_density(30.0, 60.0, f)


def _closed_form(f):
    return ps.closed_form_lambda_max(f, 30.0)


def _delta_family(f):
    return ps.sweep_delta_family(fraction_grid=(0.0, f))


@pytest.mark.parametrize("call, fraction", [
    (_mixture, -0.1),
    (_mixture, 1.5),
    (_closed_form, -0.1),
    (_closed_form, 1.5),
    (_delta_family, -0.1),
    (_delta_family, 0.6),  # the delta family stops at half the photon budget
], ids=lambda v: v.__name__.lstrip("_") if callable(v) else None)
def test_fraction_out_of_range_rejected(call, fraction):
    with pytest.raises(ValueError, match="must be in"):
        call(fraction)


@pytest.mark.parametrize("call", [
    _mixture, _closed_form, _delta_family,
    lambda f: ps.sweep_delta_family(fraction_grid=(f, 0.25)),
], ids=["mixture", "closed_form", "delta_family", "delta_family-first"])
@pytest.mark.parametrize("fraction", [True, False, "0.1", None],
                         ids=["true", "false", "str", "none"])
def test_non_real_fraction_rejected(call, fraction):
    # a bool once ran as 1 or 0 (the delta family keyed its table by it),
    # and a string or None raised TypeError from the range test
    with pytest.raises(ValueError, match=r"^fraction must be in \[0, "):
        call(fraction)


class TestClosedFormLambdaMax:
    def test_worked_example_point(self):
        assert ps.closed_form_lambda_max(0.2, 15) == pytest.approx(0.98917, abs=1e-5)

    def test_no_mixing_is_pure(self):
        assert ps.closed_form_lambda_max(0.0, 37.0) == 1.0

    def test_orthogonal_half_mix_is_maximally_mixed(self):
        assert ps.closed_form_lambda_max(0.5, 90) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(0.0, 1.0), st.one_of(st.floats(0.0, 180.0, exclude_max=True),
                                          st.integers(0, 179)))
    def test_gap_is_checked_but_read_as_given(self, f, delta):
        # the gap's check changes no float the formula gives on [0, 180)
        s = math.sin(math.radians(delta))
        expected = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * f * (1.0 - f) * s * s)))
        assert repr(ps.closed_form_lambda_max(f, delta)) == repr(expected)

    def test_validated_against_brute_force_ensembles(self):
        n = 100
        for f100 in range(0, 51, 5):
            for delta in (7.5, 15, 30, 60, 90):
                comps = [(n - f100, 30.0), (f100, 30.0 + delta)]
                comps = [(c, a) for c, a in comps if c > 0]
                rho = ps.ensemble_density(ps.PhotonEnsemble(tuple(comps)))
                brute = np.linalg.eigvalsh(rho.matrix).max()
                assert ps.closed_form_lambda_max(f100 / n, delta) == pytest.approx(
                    brute, abs=1e-10
                )


class TestSweepSiphon:
    def test_worked_example_point(self):
        spec = ps.SweepSpec(theta_deg=30, phi_deg=45, siphon_totals=(20,))
        [rec] = ps.sweep_siphon(spec)
        assert rec.siphon_total == 20
        assert rec.lambda_max == pytest.approx(0.9892, abs=5e-4)
        assert rec.peak_angle_deg == pytest.approx(32.93, abs=0.05)
        assert rec.purity == pytest.approx(0.978564, abs=1e-6)
        assert rec.detected is True

    def test_no_attack_point(self):
        spec = ps.SweepSpec(theta_deg=30, phi_deg=45, siphon_totals=(0,))
        [rec] = ps.sweep_siphon(spec)
        assert rec.lambda_max == pytest.approx(1.0, abs=1e-12)
        assert rec.peak_angle_deg == pytest.approx(30.0, abs=1e-9)
        assert rec.purity == pytest.approx(1.0, abs=1e-12)
        assert rec.detected is False

    def test_lambda_max_strictly_decreasing(self):
        # strictly decreasing up to an Eve fraction of 0.5; past that the
        # received state tips toward Eve's angle and the peak climbs again
        spec = ps.SweepSpec(
            theta_deg=22.5, phi_deg=30, siphon_totals=tuple(range(0, 51, 10))
        )
        values = [r.lambda_max for r in ps.sweep_siphon(spec)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_closed_form_oracle(self):
        spec = ps.SweepSpec(
            theta_deg=30, phi_deg=75, siphon_totals=tuple(range(0, 101, 10))
        )
        for rec in ps.sweep_siphon(spec):
            expected = ps.closed_form_lambda_max(rec.siphon_total / 100, 45)
            assert rec.lambda_max == pytest.approx(expected, abs=1e-10)


class TestSweepDeltaFamily:
    def test_worked_example_fraction(self):
        table = ps.sweep_delta_family()
        assert table[(15.0, 0.2)].lambda_max == pytest.approx(0.9892, abs=1e-4)

    def test_zero_fraction_rows(self):
        table = ps.sweep_delta_family(base_theta=30.0)
        for delta in DEFAULT_DELTAS:
            rec = table[(delta, 0.0)]
            assert rec.lambda_max == pytest.approx(1.0, abs=1e-12)
            assert rec.peak_angle_deg == pytest.approx(30.0, abs=1e-9)

    def test_zero_delta_stays_pure(self):
        table = ps.sweep_delta_family(deltas=[0.0])
        for (_, f), rec in table.items():
            assert rec.lambda_max == pytest.approx(1.0, abs=1e-12)

    def test_zero_delta_is_the_blind_spot(self):
        # Eve at Alice's own angle leaves the received state pure and on
        # Alice's hypothesis, so the decision rule cannot see her
        table = ps.sweep_delta_family(deltas=[0.0, 15.0])
        for (delta, f), rec in table.items():
            assert rec.detected is (delta > 0 and f > 0)

    def test_lambda_ordering_across_deltas(self):
        table = ps.sweep_delta_family()
        for f in DEFAULT_FRACTIONS:
            if f == 0.0:
                continue
            values = [table[(d, f)].lambda_max for d in DEFAULT_DELTAS]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_empty_deltas_rejected(self):
        with pytest.raises(ValueError):
            ps.sweep_delta_family(deltas=[])

    def test_empty_fractions_rejected(self):
        # as empty gaps are, rather than return an empty table
        with pytest.raises(ValueError, match="^fractions must be nonempty$"):
            ps.sweep_delta_family(fraction_grid=[])
        with pytest.raises(ValueError, match="^fractions must be nonempty$"):
            ps.sweep_delta_family(fraction_grid=iter(()))

    @pytest.mark.parametrize("wrap_deltas, wrap_fractions", [
        (np.array, list), (iter, list), (list, iter), (np.array, np.array),
    ], ids=["array-gaps", "iterator-gaps", "iterator-fractions", "arrays"])
    def test_grid_values_may_be_any_iterable(self, tmp_path, wrap_deltas, wrap_fractions):
        # each is read once: an array is not asked for its truth value and
        # an iterator is not used up by the checks
        deltas, fractions = [7.5, 15.0, 60.0, 200.0], [0.0, 0.1, 0.35, 0.5]
        want = ps.sweep_delta_family(deltas, 30.0, fractions)
        got = ps.sweep_delta_family(wrap_deltas(deltas), 30.0, wrap_fractions(fractions))
        assert got == want
        assert len(got) == len(deltas) * len(fractions)
        write_delta_family_csv(want, tmp_path / "lists.csv")
        write_delta_family_csv(got, tmp_path / "wrapped.csv")
        assert (tmp_path / "wrapped.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()

    @pytest.mark.parametrize("angles", [
        {"base_theta": True}, {"deltas": [True]}, {"deltas": [15.0, False]},
        {"base_theta": "30"}, {"deltas": ["15"]}, {"base_theta": None}, {"deltas": [None]},
    ], ids=["bool-theta", "bool-delta", "false-delta", "str-theta", "str-delta",
            "none-theta", "none-delta"])
    def test_non_real_angle_rejected(self, angles):
        # as every config: a bool is not 1 or 0 degrees, a string or None
        # is a ValueError, not a TypeError
        with pytest.raises(ValueError, match="polarization angle must be a real number"):
            ps.sweep_delta_family(**angles)

    def test_siphon_total_is_the_fraction_of_the_default_budget(self):
        table = ps.sweep_delta_family()
        for (_, f), rec in table.items():
            assert rec.siphon_total == round(100 * f)

    @pytest.mark.parametrize("deltas, fractions, message", [
        ((15.0, 15.0, 30.0), (0.0, 0.1), "deltas must not repeat, got 15.0 twice"),
        ((15.0, 30.0), (0.0, 0.1, 0.1), "fractions must not repeat, got 0.1 twice"),
        ((0.0, -0.0), (0.1,), "deltas must not repeat, got -0.0 twice"),
        ((15.0,), (0.0, 0.1, -0.0), "fractions must not repeat, got -0.0 twice"),
        ((15, 15.0), (0.1,), "deltas must not repeat, got 15.0 twice"),
    ], ids=["delta", "fraction", "signed-zero-delta", "signed-zero-fraction", "int-and-float"])
    def test_repeated_grid_value_rejected(self, deltas, fractions, message):
        # a repeated value is one table key, so its grid points would be lost
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ps.sweep_delta_family(deltas, 30.0, fractions)


class TestPeakAngleDrift:
    @pytest.mark.parametrize("name", ["fig4", "fig6", "fig8", "fig10"])
    def test_angle_moves_from_theta_toward_phi(self, name):
        spec = ps.SweepSpec(*PRESETS[name], siphon_totals=PRESET_TOTALS)
        records = ps.sweep_siphon(spec)
        angles = [r.peak_angle_deg for r in records if r.peak_angle_deg is not None]
        lo, hi = sorted((spec.theta_deg, spec.phi_deg))
        assert angles[0] == pytest.approx(spec.theta_deg, abs=1e-9)
        assert all(lo - 1e-9 <= a <= hi + 1e-9 for a in angles)
        assert all(b >= a - 1e-9 for a, b in zip(angles, angles[1:]))


def test_presets_are_angle_pairs_not_specs():
    # importing polarsim builds no SweepSpec: a preset is its (theta, phi)
    # pair, and the CLI builds the one spec it runs
    assert not any(isinstance(value, ps.SweepSpec) for value in PRESETS.values())
    assert all(type(value) is tuple and len(value) == 2 for value in PRESETS.values())
    assert PRESETS["fig4"] == (22.5, 30.0)


def test_record_is_a_tuple_in_field_order():
    record = ps.SweepRecord(siphon_total=20, lambda_max=0.9, peak_angle_deg=None,
                            purity=0.8, detected=True)
    total, lambda_max, angle, purity, detected = record
    assert (total, lambda_max, angle, purity, detected) == (20, 0.9, None, 0.8, True)
    assert record == ps.SweepRecord(20, 0.9, None, 0.8, True)
    [swept] = ps.sweep_siphon(ps.SweepSpec(theta_deg=30, phi_deg=45, siphon_totals=(20,)))
    assert swept == (swept.siphon_total, swept.lambda_max, swept.peak_angle_deg,
                     swept.purity, swept.detected)


# sha256 of write_delta_family_csv over a seeded 40 x 51 grid, recorded
# before exact sweep rows became tuples
DELTA_GRID_CSV_SHA256 = "02b47959162bee5c395f3540e69ac772229b1534c230db0f18fa4216ffca6429"


def test_delta_family_grid_csv_golden_bytes(tmp_path):
    rng = random.Random("delta-grid-golden")
    # the gaps in random order: the writer sorts the rows
    deltas = rng.sample([0.5 * k for k in range(1, 181)], 40)
    fractions = tuple(round(0.01 * k, 2) for k in range(51))
    table = ps.sweep_delta_family(deltas, 0.5 * rng.randrange(360), fractions)
    path = tmp_path / "grid.csv"
    write_delta_family_csv(table, path)
    assert len(path.read_text().splitlines()) == 1 + 40 * 51
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DELTA_GRID_CSV_SHA256


# sha256 of write_delta_family_csv over a seeded 81 x 51 grid, both axes
# shuffled, recorded while sweep_delta_family still returned a dict; its
# 4,131 rows cross the writer's 4,096-row block edge
SHUFFLED_GRID_CSV_SHA256 = "0509468625c098dec6ec186ec23ecc53a3ee6395f1db3f2105916bf3f981c008"


def test_delta_family_shuffled_grid_csv_golden_bytes(tmp_path):
    rng = random.Random("delta-grid-shuffled")
    deltas = rng.sample([0.5 * k for k in range(-180, 181)], 81)
    fractions = rng.sample([round(0.01 * k, 2) for k in range(51)], 51)
    table = ps.sweep_delta_family(deltas, 0.5 * rng.randrange(360), fractions)
    path = tmp_path / "grid.csv"
    write_delta_family_csv(table, path)
    assert len(path.read_text().splitlines()) == 1 + 4131
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SHUFFLED_GRID_CSV_SHA256


class TestCsvOutput:
    def test_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        ps.write_csv(table_of([]), path)
        assert path.read_text() == "siphon_total,lambda_max,peak_angle_deg,purity,detected\n"

    def test_single_record_formatting(self, tmp_path):
        path = tmp_path / "one.csv"
        ps.write_csv(table_of([ps.SweepRecord(0, 1.0, 30.0, 1.0, False)]), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "0,1.000000,30.000000,1.000000,false"

    def test_undefined_angle_renders_empty(self, tmp_path):
        path = tmp_path / "deg.csv"
        ps.write_csv(table_of([ps.SweepRecord(100, 0.5, None, 0.5, True)]), path)
        assert path.read_text().splitlines()[1] == "100,0.500000,,0.500000,true"

    def test_worked_example_row_value(self, tmp_path):
        path = tmp_path / "mix.csv"
        spec = ps.SweepSpec(theta_deg=30, phi_deg=45, siphon_totals=(20,))
        ps.write_csv(ps.sweep_siphon(spec), path)
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(0.9892, abs=5e-4)

    def test_byte_identical_across_runs(self, tmp_path):
        spec = ps.SweepSpec(*PRESETS["fig4"], siphon_totals=PRESET_TOTALS)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ps.write_csv(ps.sweep_siphon(spec), p1)
        ps.write_csv(ps.sweep_siphon(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_delta_family_csv(self, tmp_path):
        path = tmp_path / "family.csv"
        write_delta_family_csv(ps.sweep_delta_family(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "delta_deg,fraction,lambda_max,peak_angle_deg"
        assert len(lines) == 1 + len(DEFAULT_DELTAS) * len(DEFAULT_FRACTIONS)

    def test_no_signed_zero(self, tmp_path):
        # a gap and a fraction that round to zero from below, and a spectrum
        # whose angle does, print as format_decimal prints them
        path = tmp_path / "family.csv"
        write_delta_family_csv(ps.sweep_delta_family(
            deltas=[-1e-9, 15.0], base_theta=30.0, fraction_grid=(-0.0, 0.25)), path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("0.000000,0.000000,")
        assert not any("-0.000000" in line for line in lines)
        ps.write_csv(table_of([ps.SweepRecord(0, -1e-9, -0.0, -0.0, False)]), path)
        assert path.read_text().splitlines()[1] == "0,0.000000,0.000000,0.000000,false"

    # sha256 of this sweep's CSV, recorded before the writers formatted cells in numpy
    HUGE_TOTALS_CSV_SHA256 = "55918aa658177e6b0e07e547df26f0d6f6afc468f60f8e65d80f9440bfad566d"

    def test_totals_beyond_float_precision_print_exactly(self, tmp_path):
        # totals straddling 2**53 at the int64 limit: a float would round
        # 2**54 + 2 and INT64_MAX - 1
        totals = (0, 2**53 - 2, 2**53 + 2, 2**54 + 2, INT64_MAX - 1)
        spec = ps.SweepSpec(30, 45, n_photons=INT64_MAX, siphon_totals=totals)
        path = tmp_path / "huge.csv"
        ps.write_csv(ps.sweep_siphon(spec), path)
        lines = path.read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == list(map(str, totals))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.HUGE_TOTALS_CSV_SHA256

    def test_unwritable_path_reports_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            ps.write_csv(table_of([]), tmp_path / "no" / "such" / "dir.csv")

    def test_rows_or_a_dict_are_refused(self, tmp_path):
        # each writer takes its sweep's table; other input fails before a file opens
        with pytest.raises(AttributeError):
            ps.write_csv(list(_swept_table("exact", 6)), tmp_path / "sweep.csv")
        with pytest.raises(AttributeError):
            write_delta_family_csv(dict(ps.sweep_delta_family()), tmp_path / "family.csv")
        assert list(tmp_path.iterdir()) == []


def _fmt(x):
    # format_decimal's rule: a value that rounds to zero prints without a sign
    text = f"{x:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _fmt_angle(angle):
    return "" if angle is None else _fmt(angle)


def table_of(rows):
    """The SweepTable of `rows`, each five cells in SweepRecord's field
    order: numpy columns, a None angle as NaN, and the mask of the angles
    that are not None."""
    totals, lambda_max, angles, purity, detected = list(zip(*rows)) or [()] * 5
    return SweepTable(np.array(totals, np.int64), np.array(lambda_max, float),
                      np.array(angles, float), np.array(purity, float), np.array(detected, bool),
                      np.array([angle is not None for angle in angles], bool))


def reference_csv(records):
    """A siphon-sweep CSV rendered one f-string per row, as write_csv did
    before it formatted rows in blocks, each decimal by format_decimal's
    rule."""
    lines = [SWEEP_CSV_HEADER]
    lines += [
        f"{total},{_fmt(lambda_max)},{_fmt_angle(angle)},{_fmt(purity)},"
        f"{'true' if detected else 'false'}"
        for total, lambda_max, angle, purity, detected in records
    ]
    return "\n".join(lines) + "\n"


def reference_delta_family_csv(table):
    lines = [DELTA_FAMILY_CSV_HEADER]
    lines += [
        f"{_fmt(delta)},{_fmt(fraction)},{_fmt(r.lambda_max)},{_fmt_angle(r.peak_angle_deg)}"
        for (delta, fraction), r in sorted(table.items())
    ]
    return "\n".join(lines) + "\n"


floats = st.floats() | st.floats().map(np.float64)
int64s = st.integers(-2**63, 2**63 - 1)
records = st.builds(
    ps.SweepRecord,
    int64s | int64s.map(np.int64),
    floats,
    st.none() | floats,
    floats,
    st.booleans() | st.booleans().map(np.bool_),
)


# a grid axis in drawn order: unique=True draws no two equal values, so
# neither -0.0 and 0.0 nor 15 and 15.0
gaps = st.lists(st.floats(-360.0, 360.0) | st.integers(-360, 360), min_size=1, max_size=8,
                unique=True)
eve_fractions = st.lists(st.floats(0.0, 0.5), min_size=1, max_size=8, unique=True)


def random_records(n, seed):
    rng = random.Random(seed)
    return [ps.SweepRecord(rng.randrange(10**6), rng.random(),
                           None if rng.random() < 0.1 else rng.uniform(0, 180),
                           rng.random(), rng.random() < 0.5)
            for _ in range(n)]


class TestCsvWriterMatchesPerRowRendering:
    """write_csv and write_delta_family_csv format rows in blocks; their bytes
    are the per-row f-string rendering's."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(records, max_size=20))
    def test_sweep_rows(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "sweep.csv"
        ps.write_csv(table_of(rows), path)
        assert path.read_bytes() == reference_csv(rows).encode()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-360.0, 360.0),
           st.lists(st.floats(-1e9, 1e9) | st.floats(-1e9, 1e9).map(np.float64)
                    | st.integers(-10**9, 10**9), min_size=1, max_size=8, unique=True),
           eve_fractions)
    def test_delta_family_rows(self, tmp_path_factory, base, deltas, fractions):
        # axes in drawn order, so the writer's sort is exercised; gaps of
        # 999.5 or more take the formatter's CPython path
        table = ps.sweep_delta_family(deltas, base, fractions)
        path = tmp_path_factory.mktemp("csv") / "family.csv"
        write_delta_family_csv(table, path)
        assert path.read_bytes() == reference_delta_family_csv(table).encode()

    def test_special_values(self, tmp_path):
        rows = [ps.SweepRecord(np.int64(7), -0.0, angle, np.float64(0.25), np.True_)
                for angle in (None, -0.0, math.nan, math.inf, -math.inf, np.float64(12.5))]
        path = tmp_path / "special.csv"
        ps.write_csv(table_of(rows), path)
        # -0.0 prints without its sign, as format_decimal prints it
        assert path.read_text().splitlines()[1:] == [
            "7,0.000000,,0.250000,true", "7,0.000000,0.000000,0.250000,true",
            "7,0.000000,nan,0.250000,true", "7,0.000000,inf,0.250000,true",
            "7,0.000000,-inf,0.250000,true", "7,0.000000,12.500000,0.250000,true",
        ]
        assert path.read_bytes() == reference_csv(rows).encode()

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8192, 8193])
    def test_rows_across_block_edges(self, tmp_path, n):
        rows = random_records(n, n)
        path = tmp_path / "sweep.csv"
        ps.write_csv(table_of(rows), path)
        assert path.read_bytes() == reference_csv(rows).encode()

    @pytest.mark.parametrize("n, shape", [(0, None), (1, (1, 1)), (4097, (17, 241)),
                                          (8193, (3, 2731))], ids=["0", "1", "4097", "8193"])
    def test_delta_family_across_block_edges(self, tmp_path, n, shape):
        # grids of n rows in shuffled order, past one and two block edges;
        # no grid is empty, so the empty table is built by hand
        if shape is None:
            table = DeltaFamilyTable({}, {}, ps.sweep_siphon(ps.SweepSpec(30.0, 45.0)))
        else:
            rng = random.Random(n)
            deltas = rng.sample([0.25 * k for k in range(-1440, 1440)], shape[0])
            fractions = rng.sample([k / 6000 for k in range(3001)], shape[1])
            table = ps.sweep_delta_family(deltas, rng.uniform(0.0, 180.0), fractions)
        assert len(table) == n
        path = tmp_path / "family.csv"
        write_delta_family_csv(table, path)
        assert path.read_bytes() == reference_delta_family_csv(table).encode()


def _decimal_texts(values):
    """_decimal_cells' cells of `values` as text, their NUL padding dropped."""
    cells = _decimal_cells(np.array(values, dtype=np.float64))
    return [cell.replace(b"\0", b"").decode() for cell in cells.tolist()]


def _nudged(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# a value near a six-decimal midpoint (k + 1/2) / 10**6, a few ulps either
# side, signed; the product x * 10**6 in floats can land on the other side
near_midpoints = st.builds(
    lambda k, steps, sign: sign * _nudged((k + 0.5) / 1e6, steps),
    st.integers(0, 10**9), st.integers(-3, 3), st.sampled_from([1.0, -1.0]))


class TestDecimalCells:
    """The writers' one float formatter prints "%.6f" with no sign on a
    rounded zero: _fmt's text, correctly rounded with ties to even."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | near_midpoints, min_size=1, max_size=40))
    def test_matches_percent_formatting(self, values):
        assert _decimal_texts(values) == list(map(_fmt, values))

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 499, 999_999, 1_000_000, 123_456_789,
                                   999_999_999, 999_999_999_499])
    def test_decimal_midpoints_and_neighbours(self, k):
        mid = (k + 0.5) / 1e6
        values = [mid, math.nextafter(mid, 0.0), math.nextafter(mid, math.inf)]
        values += [-value for value in values]
        assert _decimal_texts(values) == list(map(_fmt, values))

    def test_dyadic_ties_go_to_even(self):
        # k / 2**m with m >= 7 can be an exact tie at the sixth decimal
        values = [k / 2.0**m for m in range(1, 40) for k in range(1, 200, 3)]
        values += [-value for value in values]
        assert _decimal_texts(values) == list(map(_fmt, values))
        assert _decimal_texts([0.0078125, 0.0234375, -0.0078125]) == [
            "0.007812", "0.023438", "-0.007812"]

    def test_zeros_subnormals_and_specials(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 4.9e-7, -4.9e-7,
                  5e-7, -5e-7, math.nan, -math.nan, math.inf, -math.inf, 999.4999999, 999.5,
                  999.9999994999, 999.9999995, -999.9999995, 1000.0, 2.0**53, -1e15, 1e300,
                  -1e300, np.finfo(np.float64).max]
        texts = _decimal_texts(values)
        assert texts == list(map(_fmt, values))
        assert texts[:2] == ["0.000000", "0.000000"] and texts[10:14] == [
            "nan", "nan", "inf", "-inf"]

    def test_a_long_cell_among_short_ones(self):
        # a value of CPython's text widens every cell; the others keep theirs
        values = [0.25, 1e300, -7.5, math.nan, 180.0]
        assert _decimal_texts(values) == list(map(_fmt, values))


def _assert_row_types(row):
    assert type(row) is ps.SweepRecord
    assert type(row.siphon_total) is int
    assert type(row.lambda_max) is float and type(row.purity) is float
    assert row.peak_angle_deg is None or type(row.peak_angle_deg) is float
    assert type(row.detected) is bool


def test_exact_rows_are_records_of_python_values():
    # at bit 1 the full budget leaves the received state maximally mixed,
    # with no peak angle
    spec = ps.SweepSpec(theta_deg=30, phi_deg=60, bob_bit=1, siphon_totals=(0, 20, 100))
    rows = ps.sweep_siphon(spec)
    assert rows[-1].peak_angle_deg is None
    assert rows[0].peak_angle_deg is not None
    table = ps.sweep_delta_family(deltas=(0.0, 90.0), fraction_grid=(0.0, 0.5))
    assert table[(90.0, 0.5)].peak_angle_deg is None
    for row in [*rows, *table.values()]:
        _assert_row_types(row)


# at bit 1 a total equal to the photon budget leaves the received state
# maximally mixed, with no peak angle: the last row of an exact table
@functools.lru_cache(maxsize=None)
def _swept_table(mode, n):
    return ps.sweep_siphon(ps.SweepSpec(theta_deg=30, phi_deg=60, bob_bit=1,
                                        n_photons=2 * (n - 1), siphon_totals=range(0, 2 * n, 2),
                                        mode=mode, seed=9))


class TestSweepTable:
    """sweep_siphon's table: a read-only Sequence of SweepRecord rows, built
    as they are read, and write_csv formats it straight from its columns."""

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_rows_by_index_slice_and_iteration(self, mode):
        table = _swept_table(mode, 6)
        assert isinstance(table, collections.abc.Sequence)
        rows = list(table)
        assert len(table) == len(rows) == 6
        assert [row.siphon_total for row in rows] == [0, 2, 4, 6, 8, 10]
        for row in rows:
            _assert_row_types(row)
        for i in range(-6, 6):
            assert table[i] == rows[i]
            _assert_row_types(table[i])
        for index in (6, -7):
            with pytest.raises(IndexError):
                table[index]
        for part in (slice(1, 4), slice(None, None, -1), slice(-2, None), slice(0, 6, 2),
                     slice(7, 9)):
            assert type(table[part]) is SweepTable
            assert list(table[part]) == rows[part]
            assert len(table[part]) == len(rows[part])
        assert list(reversed(table)) == rows[::-1]
        assert table.index(rows[3]) == 3 and rows[4] in table
        if mode == "exact":
            assert table[-1].peak_angle_deg is None

    def test_read_only(self):
        table = _swept_table("exact", 6)
        with pytest.raises(TypeError):
            table[0] = table[1]
        with pytest.raises(TypeError):
            del table[0]
        assert not hasattr(table, "append")

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_columns_are_numpy_arrays(self, mode):
        # exact mode keeps the kernel's arrays, sampled mode converts its
        # rows once; a None angle is NaN under a False angle_defined
        table = _swept_table(mode, 6)
        assert [column.dtype for column in table.columns] == [
            np.int64, np.float64, np.float64, np.float64, np.bool_]
        assert table.angle_defined.dtype == np.bool_
        assert np.array_equal(np.isnan(table.columns[2]), ~table.angle_defined)
        assert table.angle_defined.tolist() == [True] * 5 + [mode == "sampled"]

    def test_columns_given_without_a_mask_are_refused(self):
        # the constructor takes only numpy columns with their mask
        with pytest.raises(TypeError):
            SweepTable(*map(list, zip(*_swept_table("exact", 6))))

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_empty_sweep(self, tmp_path, mode):
        table = ps.sweep_siphon(ps.SweepSpec(30.0, 45.0, mode=mode))
        assert len(table) == 0 and list(table) == []
        assert [column.dtype for column in table.columns] == [
            np.int64, np.float64, np.float64, np.float64, np.bool_]
        assert table.angle_defined.dtype == np.bool_ and len(table.angle_defined) == 0
        path = tmp_path / "empty.csv"
        ps.write_csv(table, path)
        assert path.read_text() == SWEEP_CSV_HEADER + "\n"

    @pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_csv_from_columns_equals_csv_from_rows(self, tmp_path, mode, n):
        table = _swept_table(mode, n)
        if table.angle_defined.all():  # a sampled state is never exactly degenerate
            totals, lambda_max, angles, purity, detected = table.columns
            angles, defined = angles.copy(), table.angle_defined.copy()
            angles[n // 2], defined[n // 2] = math.nan, False
            table = SweepTable(totals, lambda_max, angles, purity, detected, defined)
        assert len(table) == n and not table.angle_defined.all()
        assert table.columns[2].dtype == np.float64
        path = tmp_path / "table.csv"
        ps.write_csv(table, path)
        assert path.read_bytes() == reference_csv(table).encode()


def family_as_dict(deltas, base_theta, fractions):
    """sweep_delta_family's value as 0.6.0 built it: the kernel's rows over
    the grid in the given product order, as dict(zip(product(...), records))."""
    theta = ps.normalize_angle(base_theta)
    a1, a3 = linear_stokes(theta)
    b1, b3 = linear_stokes(np.array([[ps.normalize_angle(base_theta + d)] for d in deltas]))
    f = np.array(fractions, dtype=float)
    totals = [round(100 * fraction) for fraction in fractions] * len(deltas)
    records = _exact_records(totals, (1.0 - f) * a1 + f * b1, (1.0 - f) * a3 + f * b3, theta)
    return dict(zip(itertools.product(deltas, fractions), records))


class TestDeltaFamilyTable:
    """sweep_delta_family's table: a read-only Mapping from (gap, fraction)
    to SweepRecord, its rows built as they are read, and write_delta_family_csv
    formats it straight from its axes and columns."""

    DELTAS, FRACTIONS = (60.0, 7.5, -15.0, 30.0), (0.25, 0.0, 0.5, 0.1)

    def test_mapping_in_the_given_product_order(self):
        table = ps.sweep_delta_family(self.DELTAS, 30.0, self.FRACTIONS)
        assert isinstance(table, collections.abc.Mapping)
        assert type(table) is DeltaFamilyTable
        keys = list(itertools.product(self.DELTAS, self.FRACTIONS))
        assert len(table) == 16
        assert list(table) == list(table.keys()) == keys
        assert [key for key, _ in table.items()] == keys
        assert list(table.values()) == [table[key] for key in keys]
        assert all(key in table for key in keys)
        assert (15.0, 0.25) not in table and (60.0, 0.3) not in table

    def test_rows_are_built_when_read(self):
        table = ps.sweep_delta_family(self.DELTAS, 30.0, self.FRACTIONS)
        assert type(table.records) is SweepTable
        assert [column.dtype for column in table.records.columns] == [
            np.int64, np.float64, np.float64, np.float64, np.bool_]
        assert table.records.angle_defined.all()

    def test_lookup_by_an_equal_key_of_another_type(self):
        table = ps.sweep_delta_family((15.0, 30), 30.0, (0.0, 0.25))
        row = table[(15.0, 0.25)]
        assert table[(15, 0.25)] == table[(np.float64(15.0), np.float64(0.25))] == row
        assert table[(30.0, 0)] == table[(np.int64(30), 0.0)] == table[(30, 0.0)]
        assert table[(30.0, 0)].lambda_max == 1.0
        # a key is the value as given, as in a dict
        assert list(table) == [(15.0, 0.0), (15.0, 0.25), (30, 0.0), (30, 0.25)]
        assert type(list(table)[2][0]) is int

    @pytest.mark.parametrize("key", [
        (15.0, 0.3), (16.0, 0.25), (0.25, 15.0), (math.nan, 0.25), 15.0, (15.0,),
        (15.0, 0.25, 0.0), (), "ab", [15.0, 0.25], None,
    ], ids=["missing-fraction", "missing-gap", "swapped", "nan", "scalar", "1-tuple",
            "3-tuple", "empty", "str", "list", "none"])
    def test_missing_or_malformed_key(self, key):
        table = ps.sweep_delta_family((15.0, 30.0), 30.0, (0.0, 0.25))
        with pytest.raises(KeyError) as info:
            table[key]
        assert info.value.args == (key,)
        assert key not in table
        assert table.get(key) is None

    def test_read_only(self):
        table = ps.sweep_delta_family(self.DELTAS, 30.0, self.FRACTIONS)
        with pytest.raises(TypeError):
            table[(60.0, 0.25)] = table[(7.5, 0.25)]
        with pytest.raises(TypeError):
            del table[(60.0, 0.25)]
        assert not hasattr(table, "update") and not hasattr(table, "pop")

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-360.0, 360.0), gaps, eve_fractions)
    def test_equals_the_dict_of_0_6_0(self, base, deltas, fractions):
        table = ps.sweep_delta_family(deltas, base, fractions)
        expected = family_as_dict(deltas, base, fractions)
        assert dict(table) == expected and table == expected
        assert list(table.items()) == list(expected.items())
        for row in table.values():
            _assert_row_types(row)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-360.0, 360.0), gaps, eve_fractions)
    def test_csv_from_axes_equals_csv_from_dict(self, tmp_path_factory, base, deltas, fractions):
        table = ps.sweep_delta_family(deltas, base, fractions)
        path = tmp_path_factory.mktemp("csv") / "table.csv"
        write_delta_family_csv(table, path)
        expected = family_as_dict(deltas, base, fractions)
        assert path.read_bytes() == reference_delta_family_csv(expected).encode()

    @pytest.mark.parametrize("deltas, fractions", [
        ((45.0,), (0.5, 0.0, 0.25)), ((90.0, -7.5, 0.0), (0.5,)), ((-0.0,), (-0.0,)),
    ], ids=["one-gap", "one-fraction", "one-point"])
    def test_csv_of_a_grid_with_one_value_on_an_axis(self, tmp_path, deltas, fractions):
        table = ps.sweep_delta_family(deltas, 0.0, fractions)
        write_delta_family_csv(table, tmp_path / "table.csv")
        text = (tmp_path / "table.csv").read_text()
        assert text == reference_delta_family_csv(table)
        assert len(text.splitlines()) == 1 + len(deltas) * len(fractions)
