"""Parameter-sweep harness: peak intensity and peak angle of the received
state versus the number of photons Eve manipulates, plus combined sweeps over
the angle gap between Alice's and Eve's polarizations.

Exact-mode sweeps are fully deterministic and their CSV output is
byte-identical across runs.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from collections.abc import Mapping, Sequence
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .polarization import (
    INT64_MAX,
    DensityMatrix,
    check_count,
    density_of_pure,
    is_real,
    linear_stokes,
    normalize_angle,
    unsign_zeros,
)
from .protocol import (
    Decision,
    EveConfig,
    ProtocolConfig,
    exact_read_out,
    received_stokes,
    run_protocol,
)
from .tomography import TomographyConfig

SWEEP_CSV_HEADER = "siphon_total,lambda_max,peak_angle_deg,purity,detected"
DELTA_FAMILY_CSV_HEADER = "delta_deg,fraction,lambda_max,peak_angle_deg"

DEFAULT_DELTAS = (7.5, 15.0, 30.0, 60.0)
DEFAULT_FRACTIONS = tuple(round(0.05 * i, 2) for i in range(11))  # 0.0 .. 0.5


@dataclass(frozen=True)
class SweepSpec:
    """A base transmission, `config`, run once per siphon total."""

    theta_deg: float
    phi_deg: float
    bob_bit: int = 0
    n_photons: int = 100
    siphon_totals: Tuple[int, ...] = ()
    mode: str = "exact"
    seed: int = 0
    config: ProtocolConfig = field(init=False, compare=False)

    def __post_init__(self) -> None:
        config = ProtocolConfig(
            self.n_photons, self.theta_deg, self.bob_bit, EveConfig(0, 0, self.phi_deg),
            self.mode, TomographyConfig(seed=self.seed),
        )
        self.__dict__.update(config=config, theta_deg=config.alice_angle_deg,
                             phi_deg=config.eve.injection_angle_deg,
                             n_photons=config.n_photons, seed=config.tomography.seed)
        if self.n_photons > INT64_MAX:
            raise ValueError(
                "sweeps count photons as numpy int64, so n_photons must be "
                f"at most {INT64_MAX}, got {self.n_photons}"
            )
        # a sweep's siphon bound: an even total t <= n splits into halves t/2
        # within ProtocolConfig's (t/2 <= n, t/2 <= n - t/2). Plain ints, the
        # CLI's case, are checked on one int64 array; other totals, or ones
        # the array refuses, a total at a time, so that the message names the
        # first bad total in order; a bad total is reported before the order
        totals = tuple(self.siphon_totals)
        try:
            plain = operator.countOf(map(type, totals), int) == len(totals)
            array = np.fromiter(totals, np.int64, len(totals)) if plain else None
        except OverflowError:  # beyond int64, so negative or above n_photons
            array = None
        # (the low bit of the totals' bitwise OR is set iff a total is odd)
        if (array is None or array.min(initial=0) < 0 or array.max(initial=0) > self.n_photons
                or np.bitwise_or.reduce(array) & 1):
            checked = []
            for t in totals:
                t = t if type(t) is int else check_count(t, "siphon totals must be integers")
                if t < 0 or t % 2 != 0:
                    raise ValueError(f"siphon totals must be non-negative even integers, got {t}")
                if t > self.n_photons:
                    raise ValueError(f"siphon total {t} exceeds n_photons {self.n_photons}")
                checked.append(t)
            totals = tuple(checked)
            array = np.array(totals, dtype=np.int64)
        if np.diff(array).min(initial=1) <= 0:
            raise ValueError("siphon totals must be strictly increasing")
        object.__setattr__(self, "siphon_totals", totals)


class SweepRecord(NamedTuple):
    siphon_total: int
    lambda_max: float
    peak_angle_deg: Optional[float]
    purity: float
    detected: bool


class SweepTable(Sequence):
    """Read-only SweepRecord rows kept as five columns, one per field.

    A row is built only when it is read; a slice is a table of the sliced
    columns. write_csv formats the columns without building rows.
    """

    __slots__ = ("columns",)

    def __init__(self, siphon_total: Sequence, lambda_max: Sequence,
                 peak_angle_deg: Sequence, purity: Sequence, detected: Sequence) -> None:
        self.columns = (siphon_total, lambda_max, peak_angle_deg, purity, detected)

    @classmethod
    def of_rows(cls, rows: Iterable) -> "SweepTable":
        """The table of `rows`, each five cells in SweepRecord's field order;
        an iterator is read once."""
        return cls(*(list(zip(*rows, strict=True)) or [()] * 5))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepTable(*[column[index] for column in self.columns])
        return tuple.__new__(SweepRecord, [column[index] for column in self.columns])

    def __iter__(self) -> Iterator[SweepRecord]:
        # tuple.__new__ builds each row in C; SweepRecord's own __new__ is a
        # Python function, one frame per row
        return map(tuple.__new__, itertools.repeat(SweepRecord), zip(*self.columns))


def _point_seed(base_seed: int, siphon_total: int) -> int:
    # per-point seed, so a sampled point does not depend on which other
    # totals the sweep contains or on their order
    return int(np.random.SeedSequence(entropy=(base_seed, siphon_total)).generate_state(1)[0])


def _sampled_point(spec: SweepSpec, total: int) -> SweepRecord:
    base = spec.config
    half = total // 2
    config = replace(
        base,
        eve=replace(base.eve, siphon_stage1=half, siphon_stage2=half, enabled=total > 0),
        tomography=replace(base.tomography, seed=_point_seed(spec.seed, total)),
    )
    outcome = run_protocol(config)
    spectrum = outcome.spectrum
    return SweepRecord(total, spectrum.lambda_max, spectrum.principal_angle_deg,
                       outcome.purity_received, outcome.decision is Decision.EVE_DETECTED)


def _exact_records(siphon_totals: Iterable[int], s1, s3, theta_deg: float) -> SweepTable:
    """The table of the received states with linear Stokes components
    (s1, s3), from exact_read_out for Alice's angle theta; its columns are
    Python lists, with angles None where the spectrum is degenerate."""
    summary, detected = exact_read_out(np.ravel(s1), np.ravel(s3), theta_deg)
    angles = summary.principal_angle_deg.astype(object)
    angles[np.isnan(summary.principal_angle_deg)] = None
    return SweepTable(list(siphon_totals), summary.lambda_max.tolist(), angles.tolist(),
                      summary.purity.tolist(), detected.tolist())


def sweep_siphon(spec: SweepSpec) -> SweepTable:
    """One protocol run per siphon total, split evenly across the two stages.

    Exact mode evaluates every total in one call of the Bloch-vector kernel;
    sampled mode runs the protocol once per total.
    """
    if spec.mode == "sampled":
        return SweepTable.of_rows([_sampled_point(spec, total) for total in spec.siphon_totals])
    half = np.fromiter(spec.siphon_totals, np.int64, len(spec.siphon_totals)) // 2
    s1, s3 = received_stokes(
        spec.n_photons, spec.theta_deg, spec.bob_bit, half, half, spec.phi_deg
    )
    return _exact_records(spec.siphon_totals, s1, s3, spec.theta_deg)


def _check_fraction(fraction, upper: float) -> None:
    """Raise ValueError unless fraction is_real (a bool is not) and in [0, upper]."""
    if not (is_real(fraction) and 0.0 <= fraction <= upper):
        raise ValueError(f"fraction must be in [0, {upper}], got {fraction!r}")


def mixture_density(theta_deg: float, phi_deg: float, fraction: float) -> DensityMatrix:
    """Exact convex combination (1-f) rho(theta) + f rho(phi)."""
    _check_fraction(fraction, 1)
    a = density_of_pure(theta_deg).matrix
    b = density_of_pure(phi_deg).matrix
    return DensityMatrix((1.0 - fraction) * a + fraction * b)


def closed_form_lambda_max(fraction: float, delta_deg: float) -> float:
    """Analytic peak intensity of a two-angle mixture with weight `fraction`
    on the component offset by `delta_deg`: (1 + sqrt(1 - 4f(1-f)sin^2 d))/2.

    Independent of the simulation path; used as a cross-check oracle.
    """
    _check_fraction(fraction, 1)
    normalize_angle(delta_deg)  # refuses what sweep_delta_family refuses as a gap
    s = math.sin(math.radians(delta_deg))
    return 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * fraction * (1.0 - fraction) * s * s)))


class DeltaFamilyTable(Mapping):
    """Read-only map from each (gap, fraction) of a delta-family grid to its
    SweepRecord, kept as the grid's two axes and a SweepTable of its rows.

    Each axis is a dict from its values, in the given order, to their
    positions in sorted order; the rows run over the sorted gaps, then the
    sorted fractions, the order write_delta_family_csv writes them in. Keys
    come in the given product order; a key and its row are built only when
    one is read.
    """

    __slots__ = ("delta_rank", "fraction_rank", "records")

    def __init__(self, delta_rank: Dict, fraction_rank: Dict, records: SweepTable) -> None:
        self.delta_rank, self.fraction_rank, self.records = delta_rank, fraction_rank, records

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return itertools.product(self.delta_rank, self.fraction_rank)

    def __getitem__(self, key) -> SweepRecord:
        # a dict's KeyError for anything but a (gap, fraction) pair of the grid
        if isinstance(key, tuple) and len(key) == 2:
            try:
                return self.records[self.delta_rank[key[0]] * len(self.fraction_rank)
                                    + self.fraction_rank[key[1]]]
            except KeyError:
                pass
        raise KeyError(key)


def _grid_axis(name: str, values: Tuple) -> Tuple[list, Dict]:
    """`values` sorted, and a dict from each of them, in the given order, to
    its position there. A value equal to an earlier one (as -0.0 is to 0.0,
    or 15.0 to 15) would be its table key too and drop its grid points, so
    the first such value is refused."""
    rank: Dict = {}
    for value in values:
        if value in rank:
            raise ValueError(f"{name} must not repeat, got {value} twice")
        rank[value] = None
    ordered = sorted(values)
    rank.update(zip(ordered, range(len(ordered))))
    return ordered, rank


def sweep_delta_family(
    deltas: Iterable[float] = DEFAULT_DELTAS,
    base_theta: float = 30.0,
    fraction_grid: Iterable[float] = DEFAULT_FRACTIONS,
) -> DeltaFamilyTable:
    """Peak intensity and angle over (angle gap, Eve fraction) combinations,
    as a read-only mapping from (delta, fraction) to SweepRecord whose keys
    come in the order product(deltas, fraction_grid).

    Eve's angle is base_theta + delta; records come from the exact mixture,
    the whole grid in one call of the Bloch-vector kernel, and `detected`
    from Alice's decision rule against her hypotheses for base_theta. Each
    record's siphon_total is the fraction of a sweep's default photon budget.
    """
    deltas, fraction_grid = tuple(deltas), tuple(fraction_grid)  # each read once
    for name, values in (("deltas", deltas), ("fractions", fraction_grid)):
        if not values:
            raise ValueError(f"{name} must be nonempty")
    # as in the configs, so a bool is not 1 or 0 degrees, or a fraction, in the table key
    theta = normalize_angle(base_theta)
    for delta in deltas:
        normalize_angle(delta)
    for f in fraction_grid:
        _check_fraction(f, 0.5)
    deltas, delta_rank = _grid_axis("deltas", deltas)
    fraction_grid, fraction_rank = _grid_axis("fractions", fraction_grid)
    # the grid in sorted order, so that its CSV takes the kernel's columns as they are
    a1, a3 = linear_stokes(theta)
    b1, b3 = linear_stokes(np.array([[normalize_angle(base_theta + d)] for d in deltas]))
    f = np.array(fraction_grid, dtype=float)
    totals = [round(fraction * SweepSpec.n_photons) for fraction in fraction_grid] * len(deltas)
    records = _exact_records(totals, (1.0 - f) * a1 + f * b1, (1.0 - f) * a3 + f * b3, theta)
    return DeltaFamilyTable(delta_rank, fraction_rank, records)


_CSV_BLOCK_ROWS = 4096
# a row's template by whether its angle is None; %.0s swallows a None angle
_SWEEP_ROWS = ("%s,%.6f,%.6f,%.6f,%s\n", "%s,%.6f,%.0s,%.6f,%s\n")
_DELTA_FAMILY_ROWS = ("%s,%s,%.6f,%.6f\n", "%s,%s,%.6f,%.0s\n")
_DETECTED_CELLS = {False: "false", True: "true"}


def _write_blocks(path, header: str, columns: Sequence[Sequence], angle: int,
                  rows: Tuple[str, str]) -> None:
    """Write `header` and one CSV row per index of `columns`, the cells in
    column order, to `path`. Each 4,096-row block is one `%` of `rows`' two
    templates, picked by whether the angle (column `angle`) is None, and one
    unsign_zeros; every block is formatted before the file opens, so a bad
    row leaves no file."""
    text = [header + "\n"]
    width = len(columns)
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = [column[start:start + _CSV_BLOCK_ROWS] for column in columns]
        cells = [None] * (width * len(block[0]))
        for i, column in enumerate(block):
            cells[i::width] = column
        angles = block[angle]
        if None in angles:
            template = "".join([rows[value is None] for value in angles])
        else:
            template = rows[0] * len(angles)
        text.append(unsign_zeros(template % tuple(cells)))
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(text)
    except OSError as exc:
        raise OSError(f"failed to write sweep CSV to {path}: {exc}") from exc


def write_csv(records: Iterable[SweepRecord], path) -> None:
    """Write a siphon-sweep CSV; byte-identical across runs for exact mode.

    A SweepTable is formatted from its columns; any other rows are first
    made one, read once.
    """
    table = records if isinstance(records, SweepTable) else SweepTable.of_rows(records)
    totals, lambda_max, angles, purity, detected = table.columns
    cells = list(map(_DETECTED_CELLS.__getitem__, map(operator.truth, detected)))
    _write_blocks(path, SWEEP_CSV_HEADER, (totals, lambda_max, angles, purity, cells), 2,
                  _SWEEP_ROWS)


def write_delta_family_csv(table: Mapping[Tuple[float, float], SweepRecord], path) -> None:
    """Write a delta-family CSV, its rows sorted by gap, then by fraction.

    A DeltaFamilyTable is written from its sorted axes and its rows' columns,
    which are already in that order; the keys of any other mapping are
    sorted and its rows made a SweepTable. Each gap and fraction is formatted
    once.
    """
    if isinstance(table, DeltaFamilyTable):
        deltas, fractions = sorted(table.delta_rank), sorted(table.fraction_rank)
        fraction_cells = ["%.6f" % value for value in fractions] * len(deltas)
        delta_cells = list(itertools.chain.from_iterable(
            itertools.repeat("%.6f" % value, len(fractions)) for value in deltas))
        records = table.records
    else:
        keys = sorted(table)
        # -0.0 and 0.0 share a cell, unsigned either way
        cells = {value: "%.6f" % value for value in set(itertools.chain.from_iterable(keys))}
        deltas, fractions = list(zip(*keys)) or [()] * 2
        delta_cells = list(map(cells.__getitem__, deltas))
        fraction_cells = list(map(cells.__getitem__, fractions))
        records = SweepTable.of_rows(map(table.__getitem__, keys))
    _, lambda_max, angles, _, _ = records.columns
    _write_blocks(path, DELTA_FAMILY_CSV_HEADER, (delta_cells, fraction_cells, lambda_max, angles),
                  3, _DELTA_FAMILY_ROWS)


# Figure presets, each the (theta, phi) of Alice's and Eve's angles: each
# pair of consecutive figures in the source data shares one sweep; fig2k
# plots the peak intensity, fig2k+1 the angle. All run over PRESET_TOTALS:
# past a 0.5 Eve fraction the received state tips toward Eve's angle and the
# peak intensity climbs again, so presets stop at half the photon budget
PRESET_TOTALS = tuple(range(0, 51, 10))
PRESETS: Dict[str, Tuple[float, float]] = {
    "fig4": (22.5, 30.0), "fig5": (22.5, 30.0), "fig6": (45.0, 60.0), "fig7": (45.0, 60.0),
    "fig8": (30.0, 60.0), "fig9": (30.0, 60.0), "fig10": (30.0, 90.0), "fig11": (30.0, 90.0),
}
# fig12 (peak intensity) and fig13 (peak angle) are the combined delta-family
# sweep; handled separately by the CLI under the "delta-family" preset name.
DELTA_FAMILY_PRESETS = ("fig12", "fig13", "delta-family")
