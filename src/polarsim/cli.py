"""Command-line interface: single protocol runs, figure sweeps, and
tomography demos, all seeded and reproducible.

Eve detection is a normal simulation result (exit 0); exit 1 signals a domain
error (e.g. siphoning more photons than exist) and exit 2 a usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import __version__
from .polarization import (
    PhotonEnsemble,
    density_from_stokes,
    format_decimal,
    render_matrix,
    report_line,
    stokes_purity,
    stokes_spectrum,
)
from .protocol import (
    PROTOCOL_CSV_HEADER,
    EveConfig,
    ProtocolConfig,
    run_protocol,
)
from .sweeps import (
    DELTA_FAMILY_PRESETS,
    PRESET_TOTALS,
    PRESETS,
    SweepSpec,
    sweep_delta_family,
    sweep_siphon,
    write_csv,
    write_delta_family_csv,
)
from .tomography import (
    COUNTS_CSV_HEADER,
    NUMPY_VERSION,
    RNG_ALGORITHM,
    TomographyConfig,
    measure,
    reconstruct_from_stokes,
    stokes_estimate,
)


def _write_manifest(path: Path, args: argparse.Namespace, unread: Set[str],
                    outputs: Sequence[Path], started: float,
                    run: Iterable[Tuple[str, object]] = ()) -> None:
    """Write every flag of the run's subcommand but --out (key `theta_deg` is
    flag `--theta`), empty where the run's path does not read it, then each
    (key, value) of the resolved `run` as `run.<key>=`, with the run's
    provenance."""
    params: Dict[str, object] = {}
    for dest, value in vars(args).items():
        if dest in ("subcommand", "out"):
            continue
        if dest in unread:
            value = ""
        elif isinstance(value, PhotonEnsemble):  # --mix, canonical
            value = ",".join(f"{count}@{angle}" for count, angle in value.components)
        params[dest + "_deg" if dest in ("theta", "phi", "eve_angle") else dest] = value
    lines = [f"spec_revision={__version__}", f"subcommand={args.subcommand}"]
    lines += [f"{key}={params[key]}" for key in sorted(params)]
    lines += [f"run.{key}={value}" for key, value in run]
    lines += [f"rng_algorithm={RNG_ALGORITHM}", f"numpy_version={NUMPY_VERSION}",
              "python_version=%d.%d.%d" % sys.version_info[:3]]
    lines += [f"output={out}" for out in outputs]
    lines.append(f"duration_s={time.monotonic() - started:.3f}")
    path.write_text("\n".join(lines) + "\n")


def _parse_mix(text: str) -> PhotonEnsemble:
    """Parse a mixture spec like '80@30,20@45' into a photon ensemble."""
    components: List[Tuple[int, float]] = []
    for part in text.split(","):
        try:
            count_str, angle_str = part.strip().split("@")
            components.append((int(count_str), float(angle_str)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad mixture component {part!r}; expected COUNT@ANGLE"
            ) from None
    try:
        return PhotonEnsemble(tuple(components))
    except ValueError as exc:
        # argparse would report a ValueError as "invalid _parse_mix value"
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_angle(text: str) -> float:
    """An angle in degrees as float parses it; a non-finite one is a usage
    error, as it is inside --mix."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"polarization angle must be finite, got {value!r}")
    return value


def _parse_totals(text: str) -> Tuple[int, ...]:
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad totals list {text!r}") from None


# defaults of the flags that some path ignores: they parse to None, so that
# an explicit value can be refused there, and are filled in after that check
DEFAULTS = {"bit": SweepSpec.bob_bit, "photons": SweepSpec.n_photons,
            "seed": TomographyConfig.seed, "photons_per_basis": TomographyConfig.photons_per_basis,
            "eve_angle": EveConfig.injection_angle_deg}


def _unread_flags(
    args: argparse.Namespace, rules: Sequence[Tuple[bool, str, Tuple[str, ...]]]
) -> Optional[Set[str]]:
    """The flags a run's path does not read: those of each rule
    `(applies, path, flags)` that applies. Every one of them that was given
    is named on stderr, once, under the first path that ignores it, and the
    result is None; otherwise the flags left unset take their DEFAULTS."""
    unread: Set[str] = set()
    refused = False
    for applies, path, flags in rules:
        if not applies:
            continue
        given = [name for name in flags if name not in unread and getattr(args, name) is not None]
        unread.update(flags)
        if given:
            print(f"{path} takes no {', '.join('--' + name.replace('_', '-') for name in given)}",
                  file=sys.stderr)
            refused = True
    if refused:
        return None
    for name, default in DEFAULTS.items():
        if getattr(args, name, default) is None:
            setattr(args, name, default)
    return unread


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarsim",
        description="Polarization ping-pong protocol simulator with "
        "density-matrix eavesdropper detection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("protocol", help="run a single protocol transmission")
    p.add_argument(
        "--theta", type=_parse_angle, required=True, help="Alice's polarization angle (deg)"
    )
    p.add_argument("--bit", type=int, choices=(0, 1), required=True, help="Bob's bit")
    p.add_argument("--photons", type=int, required=True, help="photons Alice sends")
    p.add_argument("--eve-siphon1", type=int, default=0, help="photons Eve siphons in stage 1")
    p.add_argument("--eve-siphon2", type=int, default=0, help="photons Eve siphons in stage 2")
    p.add_argument(
        "--eve-angle", type=_parse_angle,
        help=f"Eve's injection angle (deg), needs a siphon (default {DEFAULTS['eve_angle']})",
    )
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--seed", type=int, help=f"RNG seed, sampled mode (default {DEFAULTS['seed']})")
    p.add_argument(
        "--photons-per-basis", type=int,
        help="tomography sample size per basis, sampled mode "
        f"(default {DEFAULTS['photons_per_basis']})",
    )
    p.add_argument("--out", type=Path, default=None, help="write a CSV row and manifest here")

    s = sub.add_parser("sweep", help="run figure sweeps or a custom siphon sweep")
    s.add_argument("--preset", choices=sorted(list(PRESETS) + list(DELTA_FAMILY_PRESETS)))
    s.add_argument("--theta", type=_parse_angle, help="Alice's angle for a custom sweep (deg)")
    s.add_argument("--phi", type=_parse_angle, help="Eve's angle for a custom sweep (deg)")
    s.add_argument("--totals", type=_parse_totals, help="comma-separated siphon totals")
    s.add_argument(
        "--bit", type=int, choices=(0, 1), help=f"Bob's bit (default {DEFAULTS['bit']})"
    )
    s.add_argument(
        "--photons", type=int, help=f"photons Alice sends (default {DEFAULTS['photons']})"
    )
    s.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    s.add_argument("--seed", type=int, help=f"RNG seed, sampled mode (default {DEFAULTS['seed']})")
    s.add_argument("--out", type=Path, required=True, help="output directory")

    t = sub.add_parser("tomography", help="simulate tomography of a known ensemble")
    state = t.add_mutually_exclusive_group()
    state.add_argument("--theta", type=_parse_angle, help="single pure-state angle (deg)")
    state.add_argument("--mix", type=_parse_mix, help="mixture as COUNT@ANGLE,COUNT@ANGLE,...")
    t.add_argument(
        "--photons-per-basis", type=int, default=DEFAULTS["photons_per_basis"],
        help=f"tomography sample size per basis (default {DEFAULTS['photons_per_basis']})",
    )
    t.add_argument("--seed", type=int, default=DEFAULTS["seed"],
                   help=f"RNG seed (default {DEFAULTS['seed']})")
    t.add_argument("--out", type=Path, default=None, help="write counts CSV and manifest here")
    return parser


def _write_out(
    args: argparse.Namespace, header: str, row: str, unread: Set[str], started: float
) -> None:
    """Write a one-row CSV to --out and its manifest beside it."""
    args.out.write_text(header + "\n" + row + "\n")
    manifest = args.out.with_suffix(args.out.suffix + ".manifest")
    _write_manifest(manifest, args, unread, [args.out], started)


def cmd_protocol(args: argparse.Namespace) -> int:
    started = time.monotonic()
    # Eve is active iff she siphons; with no siphon she injects nothing, so
    # her angle reaches no result
    eve_active = args.eve_siphon1 != 0 or args.eve_siphon2 != 0
    unread = _unread_flags(args, (
        (args.mode == "exact", "protocol --mode exact", ("seed", "photons_per_basis")),
        (not eve_active, "protocol without a siphon", ("eve_angle",)),
    ))
    if unread is None:
        return 2
    config = ProtocolConfig(
        n_photons=args.photons,
        alice_angle_deg=args.theta,
        bob_bit=args.bit,
        eve=EveConfig(
            siphon_stage1=args.eve_siphon1,
            siphon_stage2=args.eve_siphon2,
            injection_angle_deg=args.eve_angle,
            enabled=eve_active,
        ),
        mode=args.mode,
        tomography=TomographyConfig(photons_per_basis=args.photons_per_basis, seed=args.seed),
    )
    outcome = run_protocol(config)
    print(outcome.to_key_value_block())
    if args.out is not None:
        _write_out(args, PROTOCOL_CSV_HEADER, outcome.to_csv_row(), unread, started)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.monotonic()
    delta_family = args.preset in DELTA_FAMILY_PRESETS
    if delta_family and args.mode != "exact":
        print(f"sweep --preset {args.preset} is exact-only; drop --mode {args.mode}",
              file=sys.stderr)
        return 2
    if args.preset is None and (args.theta is None or args.phi is None or args.totals is None):
        print("sweep requires --preset or all of --theta/--phi/--totals", file=sys.stderr)
        return 2
    # a preset fixes the angles and totals; the delta-family grid fixes
    # everything else as well
    fixed = ("theta", "phi", "totals") + (("bit", "photons", "seed") if delta_family else ())
    unread = _unread_flags(args, (
        (args.preset is not None, f"sweep --preset {args.preset}", fixed),
        (args.preset is None, "sweep without --preset", ("preset",)),
        (args.mode == "exact", "sweep --mode exact", ("seed",)),
    ))
    if unread is None:
        return 2
    run: Dict[str, object] = {}  # the resolved siphon sweep; a delta-family grid records none
    # made only once the sweep has run, so that a refused one writes nothing
    out_dir = Path(args.out)

    if delta_family:
        table = sweep_delta_family()
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "delta_family.csv"
        write_delta_family_csv(table, csv_path)
        print(f"sweep delta-family: {len(table)} points -> {csv_path}")
    else:
        if args.preset is None:
            name, theta, phi, totals = "custom", args.theta, args.phi, args.totals
        else:
            name, (theta, phi), totals = args.preset, PRESETS[args.preset], PRESET_TOTALS
        spec = SweepSpec(theta, phi, args.bit, args.photons, totals, args.mode, args.seed)
        records = sweep_siphon(spec)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{name}.csv"
        write_csv(records, csv_path)
        # the totals joined once, for run.siphon_totals and, as --totals, the manifest
        totals_text = ",".join(map(str, spec.siphon_totals))
        if args.preset is None:
            args.totals = totals_text
        run = {"theta_deg": spec.theta_deg, "phi_deg": spec.phi_deg, "bob_bit": spec.bob_bit,
               "n_photons": spec.n_photons, "siphon_totals": totals_text,
               "siphon_split": "even-across-two-stages", "mode": spec.mode}
        if spec.mode == "sampled":  # exact mode reads neither
            run.update(seed=spec.seed,
                       photons_per_basis=spec.config.tomography.photons_per_basis)
        points = "" if args.preset is None else f" {len(records)} points"
        print(f"sweep {name}: theta={spec.theta_deg} phi={spec.phi_deg}{points} -> {csv_path}")

    _write_manifest(out_dir / "manifest.txt", args, unread, [csv_path], started, run.items())
    return 0


def cmd_tomography(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.mix is not None:
        ens = args.mix
    elif args.theta is not None:
        ens = PhotonEnsemble(((1, args.theta),))
    else:
        print("tomography requires --theta or --mix", file=sys.stderr)
        return 2
    # argparse refuses both, so the one not given is the one not read
    unread = {"theta" if args.mix is not None else "mix"}
    config = TomographyConfig(photons_per_basis=args.photons_per_basis, seed=args.seed)
    counts = measure(ens.components, ens.total, config)
    stokes = stokes_estimate(counts)
    # the read-out of every protocol report, off the reconstructed Stokes vector
    s_hat = reconstruct_from_stokes(stokes)
    spectrum = stokes_spectrum(s_hat)

    print(f"counts n_h={counts.n_h} n_v={counts.n_v} n_d={counts.n_d} "
          f"n_a={counts.n_a} n_r={counts.n_r} n_l={counts.n_l}")
    print(f"stokes_estimate=({', '.join(map(format_decimal, stokes))})")
    print(f"reconstructed={render_matrix(density_from_stokes(s_hat))}")
    print(report_line("purity", stokes_purity(s_hat)))
    print(report_line("lambda_max", spectrum.lambda_max))
    print(report_line("lambda_min", spectrum.lambda_min))
    print(report_line("principal_angle_deg", spectrum.principal_angle_deg))

    if args.out is not None:
        _write_out(args, COUNTS_CSV_HEADER, counts.to_csv_row(), unread, started)
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main reads argvs with, built once per process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"protocol": cmd_protocol, "sweep": cmd_sweep, "tomography": cmd_tomography}
    try:
        return handlers[args.subcommand](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
