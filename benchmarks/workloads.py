"""Seeded workloads that drive polarsim through its public functions.

Each workload turns a seed into a fixed pool of inputs (stdlib `random`, so
the same seed gives the same inputs on any numpy), and then serves calls in a
closed loop: one caller, the next call issued when the previous returned.
`call(i)` times call i, then checks its outputs outside the timed region.

Importing this module imports polarsim from the `src/` directory of the tree
it sits in, never from anywhere else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import oracle

if TYPE_CHECKING:
    from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import polarsim
    from polarsim import cli, protocol, sweeps, tomography
finally:
    sys.path.remove(str(SRC))
if Path(polarsim.__file__).resolve().parent != SRC / "polarsim":
    raise ImportError(f"polarsim was imported from {polarsim.__file__}, not from {SRC}")

POOL_SIZE = 4096

# span opened by the benchmark around each call, the root of its span tree
CALL_SPAN = "bench.call"


@dataclass(frozen=True)
class CallResult:
    ops: int
    seconds: float
    failed: int


class Workload:
    """Failure reporting shared by the workloads: every failure is counted,
    the first MAX_REPORTS are described on stderr."""

    MAX_REPORTS = 5

    def __init__(self) -> None:
        self.reports = 0

    def report(self, message: str, exc: Optional[BaseException] = None) -> None:
        self.reports += 1
        if self.reports <= self.MAX_REPORTS:
            print(f"benchmark: {message}", file=sys.stderr)
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)

    def report_exception(self, exc: BaseException, tracer: Optional[Tracer]) -> None:
        if tracer:
            tracer.unwind()
        self.report("call failed:", exc)


# --------------------------------------------------------------------------
# transmit_exact / transmit_sampled: one run_protocol per call


@dataclass(frozen=True)
class Transmission:
    n: int
    theta: float
    bit: int
    eve: bool
    s1: int
    s2: int
    phi: float
    photons_per_basis: int
    seed: int


def generate_transmissions(mode: str, seed: int) -> List[Transmission]:
    """n log-spread over 1e2..1e5, angles on a 0.5 deg grid, Eve on ~70% of
    calls with stage siphons up to n/4.

    One Eve call in five is stealthy: she injects at theta + 90*bit, Bob's
    own output state, and skips stage 1 when bit = 1. The received state is
    then pure and equal to Bob's hypothesis, so the state check cannot see
    her and the call must decode Bob's bit.
    """
    rng = random.Random(f"{mode}:{seed}")
    pool = []
    for _ in range(POOL_SIZE):
        n = round(10 ** rng.uniform(2.0, 5.0))
        theta = 0.5 * rng.randrange(360)
        bit = rng.randrange(2)
        eve = rng.random() < 0.7
        s1 = s2 = 0
        phi = 0.0
        if eve:
            if rng.random() < 0.2:
                phi = theta + 90.0 * bit
                s1 = 0 if bit else rng.randint(0, n // 4)
            else:
                phi = 0.5 * rng.randrange(360)
                s1 = rng.randint(0, n // 4)
            s2 = rng.randint(0, n // 4)
        photons_per_basis = rng.choice((1_000, 100_000)) if mode == "sampled" else 100_000
        pool.append(Transmission(n, theta, bit, eve, s1, s2, phi, photons_per_basis,
                                 rng.getrandbits(32)))
    return pool


class Transmit(Workload):
    """Single transmissions; an op is one transmission."""

    window_calls = 500
    tail_percentile = 95.0

    def __init__(self, mode: str, seed: int, workdir: Path) -> None:
        super().__init__()
        self.mode = mode
        self.inputs = generate_transmissions(mode, seed)
        self.rendered: Dict[int, str] = {}

    def warm_up(self) -> None:
        for i in range(64):
            self.call(i)
        self.rendered.clear()

    def config(self, p: Transmission):
        return protocol.ProtocolConfig(
            n_photons=p.n,
            alice_angle_deg=p.theta,
            bob_bit=p.bit,
            eve=protocol.EveConfig(p.s1, p.s2, p.phi, enabled=True) if p.eve
            else protocol.EveConfig.disabled(),
            mode=self.mode,
            tomography=tomography.TomographyConfig(p.photons_per_basis, p.seed),
        )

    def call(self, i: int, tracer: Optional[Tracer] = None) -> CallResult:
        p = self.inputs[i % len(self.inputs)]
        start = time.perf_counter()
        try:
            if tracer:
                tracer.enter(CALL_SPAN)
                tracer.enter("protocol.config_build")
            config = self.config(p)
            if tracer:
                tracer.exit()
            outcome = protocol.run_protocol(config)
            text = outcome.to_key_value_block()
            if tracer:
                tracer.exit()
        except Exception as exc:  # a failed op is counted, and the loop goes on
            self.report_exception(exc, tracer)
            return CallResult(1, time.perf_counter() - start, 1)
        seconds = time.perf_counter() - start
        return CallResult(1, seconds, 0 if self.check(i, p, outcome, text) else 1)

    def check(self, i: int, p: Transmission, outcome, text: str) -> bool:
        spectrum = outcome.spectrum
        if self.mode == "exact":
            expected = oracle.expect_transmission(p.n, p.theta, p.bit, p.eve, p.s1, p.s2, p.phi)
            bad = oracle.mismatches(
                expected,
                purity=outcome.purity_received,
                lambda_max=spectrum.lambda_max,
                lambda_min=spectrum.lambda_min,
                angle_deg=spectrum.principal_angle_deg,
                dist_h0=outcome.dist_to_h0,
                dist_h90=outcome.dist_to_h90,
                decision=outcome.decision.value,
                intensities=outcome.stage_intensities,
            )
            if not p.eve and outcome.decision.value != (oracle.BIT1 if p.bit else oracle.BIT0):
                bad.append("no-eve decode")
        else:
            rho = outcome.rho_received.matrix
            bad = oracle.sampled_mismatches(
                trace=float((rho[0, 0] + rho[1, 1]).real),
                purity=outcome.purity_received,
                lambda_max=spectrum.lambda_max,
            )
            if outcome.stage_intensities != (p.n, p.n, p.n):
                bad.append("intensities")
        if not text.startswith(f"decision={outcome.decision.value}\npurity={outcome.purity_received:.6f}\n"):
            bad.append("rendering")
        # the pool repeats: a config must render the same text every time
        if self.rendered.setdefault(i % len(self.inputs), text) != text:
            bad.append("repeatability")
        if bad:
            self.report(f"{self.mode} call {i} {p} failed checks {bad}")
        return not bad


# --------------------------------------------------------------------------
# sweep_bulk: CLI siphon sweeps and delta-family sweeps, many points per call

PRESET_PAIRS = ((22.5, 30.0), (45.0, 60.0), (30.0, 60.0), (30.0, 90.0))
SWEEP_PHOTONS = 10_000
SWEEP_POINTS = 1_000
DELTA_COUNT = 40
FRACTIONS = tuple(round(0.01 * k, 2) for k in range(51))
FORMAT_TOL = 5e-7 + 1e-9  # values are written with six decimals


@dataclass(frozen=True)
class SiphonSweep:
    theta: float
    phi: float
    bit: int
    totals: Tuple[int, ...]


@dataclass(frozen=True)
class DeltaFamily:
    base_theta: float
    deltas: Tuple[float, ...]
    fractions: Tuple[float, ...]


def generate_sweeps(seed: int) -> List[object]:
    """Two rounds of: one `polarsim sweep` per preset (theta, phi) pair over
    a random set of even siphon totals, then one delta-family grid."""
    rng = random.Random(f"sweep_bulk:{seed}")
    calls: List[object] = []
    for _ in range(2):
        for theta, phi in PRESET_PAIRS:
            totals = sorted(rng.sample(range(0, SWEEP_PHOTONS // 2 + 1, 2), SWEEP_POINTS))
            calls.append(SiphonSweep(theta, phi, rng.randrange(2), tuple(totals)))
        deltas = sorted(rng.sample([0.5 * k for k in range(1, 181)], DELTA_COUNT))
        calls.append(DeltaFamily(0.5 * rng.randrange(360), tuple(deltas), FRACTIONS))
    return calls


def _angle_gap(a: float, b: float) -> float:
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


class SweepBulk(Workload):
    """Few calls with many points each; an op is one sweep point."""

    tail_percentile = 90.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        self.inputs = generate_sweeps(seed)
        self.window_calls = len(self.inputs)
        self.workdir = workdir
        self.digests: Dict[int, str] = {}

    def warm_up(self) -> None:
        self._run(-1, SiphonSweep(30.0, 60.0, 0, (0, 2, 4)), None)
        self._run(-2, DeltaFamily(30.0, (15.0,), (0.0, 0.25, 0.5)), None)
        self.digests.clear()

    def call(self, i: int, tracer: Optional[Tracer] = None) -> CallResult:
        k = i % len(self.inputs)
        return self._run(k, self.inputs[k], tracer)

    def _run(self, k: int, spec, tracer: Optional[Tracer]) -> CallResult:
        out = self.workdir / f"call{k}"
        if isinstance(spec, SiphonSweep):
            ops = len(spec.totals)
            argv = ["sweep", "--theta", str(spec.theta), "--phi", str(spec.phi),
                    "--totals", ",".join(map(str, spec.totals)), "--bit", str(spec.bit),
                    "--photons", str(SWEEP_PHOTONS), "--mode", "exact", "--out", str(out)]
            csv_path = out / "custom.csv"
        else:
            ops = len(spec.deltas) * len(spec.fractions)
            out.mkdir(parents=True, exist_ok=True)
            csv_path = out / "delta_family.csv"
        table = None
        start = time.perf_counter()
        try:
            if tracer:
                tracer.enter(CALL_SPAN)
            if isinstance(spec, SiphonSweep):
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(argv)
                if status != 0:
                    raise RuntimeError(f"polarsim sweep exited with {status}")
            else:
                table = sweeps.sweep_delta_family(spec.deltas, spec.base_theta, spec.fractions)
                sweeps.write_delta_family_csv(table, csv_path)
            if tracer:
                tracer.exit()
            seconds = time.perf_counter() - start
            csv = csv_path.read_bytes()
        except Exception as exc:  # a failed call fails all its points
            self.report_exception(exc, tracer)
            return CallResult(ops, time.perf_counter() - start, ops)
        return CallResult(ops, seconds, self.check(k, spec, table, csv, ops))

    def check(self, k: int, spec, table, csv: bytes, ops: int) -> int:
        """Failed points of one call. A CSV is verified point by point the
        first time its call runs; later runs must reproduce its sha256."""
        failed = 0
        if table is not None:
            if len(table) != ops:
                failed = ops
            for (delta, fraction), record in table.items():
                if not abs(record.lambda_max - sweeps.closed_form_lambda_max(fraction, delta)) <= 1e-9:
                    failed += 1
        digest = hashlib.sha256(csv).hexdigest()
        previous = self.digests.get(k)
        if previous is None:
            self.digests[k] = digest
            if isinstance(spec, SiphonSweep):
                failed = max(failed, self._check_siphon_csv(spec, csv.decode()))
        elif previous != digest:
            failed = ops
        if failed:
            self.report(f"sweep call {k} {type(spec).__name__} failed {failed} points")
        return min(failed, ops)

    def _check_siphon_csv(self, spec: SiphonSweep, text: str) -> int:
        lines = text.splitlines()
        if lines[0] != sweeps.SWEEP_CSV_HEADER or len(lines) != len(spec.totals) + 1:
            return len(spec.totals)
        failed = 0
        for total, line in zip(spec.totals, lines[1:]):
            fields = line.split(",")
            want = oracle.expect_transmission(SWEEP_PHOTONS, spec.theta, spec.bit, total > 0,
                                              total // 2, total // 2, spec.phi)
            ok = (
                int(fields[0]) == total
                and abs(float(fields[1]) - want.lambda_max) <= FORMAT_TOL
                and abs(float(fields[3]) - want.purity) <= FORMAT_TOL
                and (want.decision is None or fields[4] == str(want.decision == oracle.EVE).lower())
            )
            if want.degenerate is not None and math.hypot(*want.r) > 1e-6:
                expected_angle = math.degrees(math.atan2(*want.r)) / 2.0
                ok = ok and fields[2] != "" and _angle_gap(float(fields[2]), expected_angle) <= FORMAT_TOL
            elif want.degenerate:
                ok = ok and fields[2] == ""
            failed += not ok
        return failed


WORKLOADS = ("transmit_exact", "transmit_sampled", "sweep_bulk")


def create(name: str, seed: int, workdir: Path):
    if name == "transmit_exact":
        return Transmit("exact", seed, workdir)
    if name == "transmit_sampled":
        return Transmit("sampled", seed, workdir)
    if name == "sweep_bulk":
        return SweepBulk(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
