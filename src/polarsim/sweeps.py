"""Parameter-sweep harness: peak intensity and peak angle of the received
state versus the number of photons Eve manipulates, plus combined sweeps over
the angle gap between Alice's and Eve's polarizations.

Exact-mode sweeps are fully deterministic and their CSV output is
byte-identical across runs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
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
    """A base transmission, run once per siphon total (see point)."""

    theta_deg: float
    phi_deg: float
    bob_bit: int = 0
    n_photons: int = 100
    siphon_totals: Tuple[int, ...] = ()
    mode: str = "exact"
    seed: int = 0

    def __post_init__(self) -> None:
        # the point without Eve checks every other field and gives their canonical values
        config = self.point(0, self.seed)
        self.__dict__.update(theta_deg=config.alice_angle_deg,
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

    def point(self, total: int, seed: int) -> ProtocolConfig:
        """The run at siphon total `total`, halved across the stages, seeded `seed`."""
        eve = EveConfig(total // 2, total // 2, self.phi_deg, total > 0)
        return ProtocolConfig(self.n_photons, self.theta_deg, self.bob_bit, eve, self.mode,
                              TomographyConfig(seed=seed))


class SweepRecord(NamedTuple):
    siphon_total: int
    lambda_max: float
    peak_angle_deg: Optional[float]
    purity: float
    detected: bool


class SweepTable(Sequence):
    """Read-only SweepRecord rows kept as five numpy columns, one per field.

    Siphon totals are int64, lambda_max, peak angle and purity float64 and
    detected bool; `angle_defined` is the bool mask of the rows whose peak
    angle is not None, which is held as NaN. The constructor takes the
    columns and mask as they are.

    A row is read with Python values (an int, floats, None or a float, a
    bool), from lists the first read builds once; a slice is a table of the
    sliced columns. write_csv formats the columns without building rows.
    """

    __slots__ = ("columns", "angle_defined", "_values")

    def __init__(self, siphon_total: np.ndarray, lambda_max: np.ndarray,
                 peak_angle_deg: np.ndarray, purity: np.ndarray, detected: np.ndarray,
                 angle_defined: np.ndarray) -> None:
        self.columns = (siphon_total, lambda_max, peak_angle_deg, purity, detected)
        self.angle_defined = angle_defined
        self._values = None

    def __len__(self) -> int:
        return len(self.columns[0])

    def _lists(self) -> list:
        """The columns as lists of Python values, None for an undefined
        angle; built on the first read of a row."""
        if self._values is None:
            values = [column.tolist() for column in self.columns]
            for i in np.flatnonzero(~self.angle_defined).tolist():
                values[2][i] = None
            self._values = values
        return self._values

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepTable(*[column[index] for column in self.columns],
                              self.angle_defined[index])
        values = self._values or self._lists()  # no call once the lists are built
        return tuple.__new__(SweepRecord, [column[index] for column in values])

    def __iter__(self) -> Iterator[SweepRecord]:
        # tuple.__new__ builds each row in C; SweepRecord's own __new__ is a
        # Python function, one frame per row
        return map(tuple.__new__, itertools.repeat(SweepRecord), zip(*self._lists()))


def _point_seed(base_seed: int, siphon_total: int) -> int:
    # per-point seed, so a sampled point does not depend on which other
    # totals the sweep contains or on their order
    return int(np.random.SeedSequence(entropy=(base_seed, siphon_total)).generate_state(1)[0])


def _sampled_point(spec: SweepSpec, total: int) -> SweepRecord:
    outcome = run_protocol(spec.point(total, _point_seed(spec.seed, total)))
    spectrum = outcome.spectrum
    return SweepRecord(total, spectrum.lambda_max, spectrum.principal_angle_deg,
                       outcome.purity_received, outcome.decision is Decision.EVE_DETECTED)


def _exact_records(siphon_totals: Sequence[int], s1, s3, theta_deg: float) -> SweepTable:
    """The table of the received states with linear Stokes components
    (s1, s3), from exact_read_out for Alice's angle theta: the kernel's
    columns as they come, with the angle undefined where the spectrum is
    degenerate (its NaN)."""
    summary, detected = exact_read_out(np.ravel(s1), np.ravel(s3), theta_deg)
    angles = summary.principal_angle_deg
    return SweepTable(np.asarray(siphon_totals, np.int64), summary.lambda_max, angles,
                      summary.purity, detected, ~np.isnan(angles))


def sweep_siphon(spec: SweepSpec) -> SweepTable:
    """One protocol run per siphon total, split evenly across the two stages.

    Exact mode evaluates every total in one call of the Bloch-vector kernel;
    sampled mode runs the protocol once per total, and its table's columns
    are made from the points' Python values (a None angle as NaN).
    """
    if spec.mode == "sampled":
        points = [_sampled_point(spec, total) for total in spec.siphon_totals]
        totals, lambda_max, angles, purity, detected = list(zip(*points)) or [()] * 5
        return SweepTable(np.array(totals, np.int64), np.array(lambda_max, float),
                          np.array(angles, float), np.array(purity, float),
                          np.array(detected, bool),
                          np.array([angle is not None for angle in angles], bool))
    totals = np.fromiter(spec.siphon_totals, np.int64, len(spec.siphon_totals))
    half = totals // 2
    s1, s3 = received_stokes(
        spec.n_photons, spec.theta_deg, spec.bob_bit, half, half, spec.phi_deg
    )
    return _exact_records(totals, s1, s3, spec.theta_deg)


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
    totals = np.tile([round(fraction * SweepSpec.n_photons) for fraction in fraction_grid],
                     len(deltas))
    records = _exact_records(totals, (1.0 - f) * a1 + f * b1, (1.0 - f) * a3 + f * b3, theta)
    return DeltaFamilyTable(delta_rank, fraction_rank, records)


_CSV_BLOCK_ROWS = 4096


@functools.cache
def _cell_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSV formatters' lookup tables, built on first use; every entry is
    NUL-padded. `groups` holds each k of 0..999 in four bytes (uint32): at k
    zero-padded, at 1000 + k bare with 0 empty, at 2000 + k bare with 0 as
    "0". `heads` holds each integer part 0..999 and its decimal point in
    eight bytes (uint64), at 1000 + k with a minus sign. `detected` holds
    the cells false and true in eight bytes."""
    groups = b"".join([b"%03d\0" % k for k in range(1000)]
                      + [(b"%d" % k if k else b"").rjust(4, b"\0") for k in range(1000)]
                      + [(b"%d" % k).rjust(4, b"\0") for k in range(1000)])
    heads = b"".join([(b"%d." % k).rjust(8, b"\0") for k in range(1000)]
                     + [(b"-%d." % k).rjust(8, b"\0") for k in range(1000)])
    return (np.frombuffer(groups, np.uint32), np.frombuffer(heads, np.uint64),
            np.frombuffer(b"false\0\0\0true\0\0\0\0", np.uint64))


def _joined(pieces: Sequence, count: int) -> np.ndarray:
    """`count` records, each the bytes of every piece's cell side by side; a
    piece is an array of `count` cells or one bytes value for every record."""
    records = np.empty(count, [("", np.asarray(piece).dtype) for piece in pieces])
    for name, piece in zip(records.dtype.names, pieces):
        records[name] = piece
    return records


def _total_cells(values: np.ndarray) -> np.ndarray:
    """`str` of each total, as an array of NUL-padded fixed-width bytes
    cells: in numpy, three digits at a time, when they are non-negative
    int64, else a total at a time."""
    if values.dtype != np.int64 or values.min(initial=0) < 0:
        return np.array([str(value).encode() for value in values.tolist()])
    groups = _cell_tables()[0]
    count = (len(str(int(values.max(initial=0)))) + 2) // 3
    pieces = []
    for j in range(count):
        higher = values // 1000
        # three digits zero-padded below a higher group; the top group bare,
        # a zero top group empty unless it is the units
        pieces.append(groups[values - 1000 * higher
                             + np.where(higher > 0, 0, 1000 if j else 2000)])
        values = higher
    return _joined(pieces[::-1], len(values)).view(f"S{4 * count}")


def _decimal_cells(values: np.ndarray) -> np.ndarray:
    """`"%.6f" % v` of each float64 v, with no sign where it rounds to zero,
    as an array of NUL-padded fixed-width bytes cells.

    `%` rounds |v| * 10**6, exactly, to the nearest integer, ties to even.
    For |v| < 999.5, whose integer part has three digits at most once
    rounded, the product is formed exactly as p + q: `head` keeps the
    top 39 bits of the significand, so head * 1e6 and (|v| - head) * 1e6 are
    exact floats, and Fast2Sum gives s + t == p + q with s the rounded sum
    and |t| at most half an ulp of s. As s < 2**52, each midpoint k + 1/2 is
    a float, so rint(s) is the right integer unless s is a midpoint; there
    the sign of t says which side the exact product is on, and t == 0 is a
    tie, which rint already sent to even. The digits come from lookup tables.
    Any other value (non-finite, or 999.5 or more) gets CPython's own text.
    """
    groups, heads, _ = _cell_tables()
    x = np.abs(values)
    small = x < 999.5
    if not small.all():
        x = np.where(small, x, 0.0)
    head = (x.view(np.uint64) & np.uint64(0xFFFF_FFFF_FFFF_C000)).view(np.float64)
    p = head * 1e6
    q = (x - head) * 1e6
    s = p + q
    t = q - (s - p)
    rounded = np.rint(s)
    off = s - rounded
    n = rounded.astype(np.int64)
    n += (off == 0.5) & (t > 0)
    n -= (off == -0.5) & (t < 0)
    thousands = n // 1000
    whole = thousands // 1000
    digits = [groups[thousands - 1000 * whole], groups[n - 1000 * thousands]]
    slow = np.flatnonzero(~small)
    whole += (np.signbit(values) & (n > 0)) * 1000
    whole[slow] = 0
    cells = _joined([heads[whole], *digits], len(n)).view("S16")
    if len(slow):
        text = np.array([b"%.6f" % value for value in values[slow].tolist()])
        cells = cells.astype(f"S{max(16, text.dtype.itemsize)}")
        cells[slow] = text
    return cells


def _float_pieces(columns: Sequence[np.ndarray], angle_defined: np.ndarray,
                  rows: np.ndarray) -> list:
    """The pieces (see _joined) of the float64 `columns` at `rows`, each
    after a comma; the second column is the angle, whose cell is empty
    where `angle_defined` is false. One _decimal_cells call formats them
    all."""
    count = len(rows)
    cells = _decimal_cells(np.concatenate([column[rows] for column in columns]))
    cells[count:2 * count][~angle_defined[rows]] = b""
    pieces = []
    for start in range(0, len(cells), count):
        pieces += [b",", cells[start:start + count]]
    return pieces


def _write_rows(path, header: str, count: int, block_pieces) -> None:
    """Write `header` and `count` CSV rows to `path`, `block_pieces(rows)`
    giving the pieces (see _joined) of the rows numbered `rows`. Rows go a
    4,096-row block at a time, so numpy temporaries are bounded by the
    block, and each block's NUL padding is dropped. Every block is
    formatted before the file opens, so a bad row leaves no file."""
    text = [header.encode() + b"\n"]
    for start in range(0, count, _CSV_BLOCK_ROWS):
        rows = np.arange(start, min(start + _CSV_BLOCK_ROWS, count))
        text.append(_joined(block_pieces(rows), len(rows)).tobytes().translate(None, b"\0"))
    try:
        with open(path, "wb") as fh:
            fh.writelines(text)
    except OSError as exc:
        raise OSError(f"failed to write sweep CSV to {path}: {exc}") from exc


def write_csv(table: SweepTable, path) -> None:
    """Write sweep_siphon's table as a siphon-sweep CSV; byte-identical
    across runs for exact mode.

    Each block of rows is formatted from the table's numpy columns: the
    totals by _total_cells, the three floats by one _decimal_cells call,
    detected as true or false.
    """
    totals, lambda_max, angles, purity, detected = table.columns
    detected_cells = _cell_tables()[2]

    def block_pieces(rows):
        return [_total_cells(totals[rows]),
                *_float_pieces((lambda_max, angles, purity), table.angle_defined, rows), b",",
                detected_cells[detected[rows].view(np.uint8)], b"\n"]

    _write_rows(path, SWEEP_CSV_HEADER, len(table), block_pieces)


def write_delta_family_csv(table: DeltaFamilyTable, path) -> None:
    """Write sweep_delta_family's table as a delta-family CSV, its rows
    sorted by gap, then by fraction.

    The table's sorted axes and its rows' numpy columns are already in that
    order: each gap and fraction is formatted once, and its cell repeated
    over its rows. The floats are formatted as write_csv formats them.
    """
    gaps, fractions = (_decimal_cells(np.array(sorted(axis), float))
                       for axis in (table.delta_rank, table.fraction_rank))
    gap_cells, fraction_cells = np.repeat(gaps, len(fractions)), np.tile(fractions, len(gaps))
    _, lambda_max, angles, _, _ = table.records.columns
    angle_defined = table.records.angle_defined

    def block_pieces(rows):
        return [gap_cells[rows], b",", fraction_cells[rows],
                *_float_pieces((lambda_max, angles), angle_defined, rows), b"\n"]

    _write_rows(path, DELTA_FAMILY_CSV_HEADER, len(lambda_max), block_pieces)


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
