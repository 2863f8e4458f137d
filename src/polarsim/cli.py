"""Command-line interface: single protocol runs, figure sweeps, and
tomography demos, all seeded and reproducible.

Eve detection is a normal simulation result (exit 0); exit 1 signals a domain
error (e.g. siphoning more photons than exist) and exit 2 a usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .polarization import (
    PhotonEnsemble,
    eigendecompose,
    ensemble_density,
    format_decimal,
    purity,
    render_matrix,
)
from .protocol import (
    PROTOCOL_CSV_HEADER,
    EveConfig,
    ProtocolConfig,
    run_protocol,
)
from .sweeps import (
    DELTA_FAMILY_PRESETS,
    PRESETS,
    SweepSpec,
    sweep_delta_family,
    sweep_siphon,
    write_csv,
    write_delta_family_csv,
)
from .tomography import (
    COUNTS_CSV_HEADER,
    RNG_ALGORITHM,
    TomographyConfig,
    reconstruct,
    simulate_counts,
    stokes_estimate,
)


def _write_manifest(
    path: Path,
    subcommand: str,
    params: Dict[str, object],
    seed: int,
    outputs: Sequence[Path],
    started: float,
) -> None:
    lines = [
        f"spec_revision={__version__}",
        f"subcommand={subcommand}",
    ]
    for key in sorted(params):
        lines.append(f"{key}={params[key]}")
    lines.append(f"seed={seed}")
    lines.append(f"rng_algorithm={RNG_ALGORITHM}")
    for out in outputs:
        lines.append(f"output={out}")
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
    return PhotonEnsemble(tuple(components))


def _parse_totals(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad totals list {text!r}") from None


# sweep flags that the delta-family presets do not use; they default to None
# so that an explicit value can be refused there
SWEEP_DEFAULTS = {"bit": 0, "photons": 100, "seed": 0}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarsim",
        description="Polarization ping-pong protocol simulator with "
        "density-matrix eavesdropper detection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("protocol", help="run a single protocol transmission")
    p.add_argument("--theta", type=float, required=True, help="Alice's polarization angle (deg)")
    p.add_argument("--bit", type=int, choices=(0, 1), required=True, help="Bob's bit")
    p.add_argument("--photons", type=int, required=True, help="photons Alice sends")
    p.add_argument("--eve-siphon1", type=int, default=0, help="photons Eve siphons in stage 1")
    p.add_argument("--eve-siphon2", type=int, default=0, help="photons Eve siphons in stage 2")
    p.add_argument("--eve-angle", type=float, default=0.0, help="Eve's injection angle (deg)")
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (sampled mode)")
    p.add_argument(
        "--photons-per-basis", type=int, default=100_000,
        help="tomography sample size per basis (sampled mode)",
    )
    p.add_argument("--out", type=Path, default=None, help="write a CSV row and manifest here")

    s = sub.add_parser("sweep", help="run figure sweeps or a custom siphon sweep")
    s.add_argument("--preset", choices=sorted(list(PRESETS) + list(DELTA_FAMILY_PRESETS)))
    s.add_argument("--theta", type=float, help="Alice's angle for a custom sweep (deg)")
    s.add_argument("--phi", type=float, help="Eve's angle for a custom sweep (deg)")
    s.add_argument("--totals", type=_parse_totals, help="comma-separated siphon totals")
    s.add_argument("--bit", type=int, choices=(0, 1), help="Bob's bit (default 0)")
    s.add_argument("--photons", type=int, help="photons Alice sends (default 100)")
    s.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    s.add_argument("--seed", type=int, help="RNG seed, sampled mode (default 0)")
    s.add_argument("--out", type=Path, required=True, help="output directory")

    t = sub.add_parser("tomography", help="simulate tomography of a known ensemble")
    t.add_argument("--theta", type=float, help="single pure-state angle (deg)")
    t.add_argument("--mix", type=_parse_mix, help="mixture as COUNT@ANGLE,COUNT@ANGLE,...")
    t.add_argument("--photons-per-basis", type=int, default=100_000)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", type=Path, default=None, help="write counts CSV and manifest here")
    return parser


def cmd_protocol(args: argparse.Namespace) -> int:
    started = time.monotonic()
    eve_active = args.eve_siphon1 > 0 or args.eve_siphon2 > 0
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
        out = Path(args.out)
        out.write_text(PROTOCOL_CSV_HEADER + "\n" + outcome.to_csv_row() + "\n")
        manifest = out.with_suffix(out.suffix + ".manifest")
        _write_manifest(
            manifest,
            "protocol",
            {
                "theta_deg": args.theta,
                "bit": args.bit,
                "photons": args.photons,
                "eve_siphon1": args.eve_siphon1,
                "eve_siphon2": args.eve_siphon2,
                "eve_angle_deg": args.eve_angle,
                "mode": args.mode,
                "photons_per_basis": args.photons_per_basis,
            },
            args.seed,
            [out],
            started,
        )
    return 0


def _write_sweep_meta(path: Path, spec: SweepSpec) -> None:
    lines = [
        f"theta_deg={spec.theta_deg}",
        f"phi_deg={spec.phi_deg}",
        f"bob_bit={spec.bob_bit}",
        f"n_photons={spec.n_photons}",
        "siphon_totals=" + ",".join(str(t) for t in spec.siphon_totals),
        "siphon_split=even-across-two-stages",
        f"mode={spec.mode}",
        f"seed={spec.seed}",
        f"rng_algorithm={RNG_ALGORITHM}",
    ]
    path.write_text("\n".join(lines) + "\n")


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.preset in DELTA_FAMILY_PRESETS:
        if args.mode != "exact":
            print(f"sweep --preset {args.preset} is exact-only; drop --mode {args.mode}",
                  file=sys.stderr)
            return 2
        unused = [f"--{name}" for name in SWEEP_DEFAULTS if getattr(args, name) is not None]
        if unused:
            print(f"sweep --preset {args.preset} takes no {', '.join(unused)}", file=sys.stderr)
            return 2
    for name, default in SWEEP_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: List[Path] = []
    params: Dict[str, object] = {"mode": args.mode}

    if args.preset is not None:
        params["preset"] = args.preset
        if args.preset in DELTA_FAMILY_PRESETS:
            table = sweep_delta_family()
            csv_path = out_dir / "delta_family.csv"
            write_delta_family_csv(table, csv_path)
            outputs.append(csv_path)
            print(f"sweep delta-family: {len(table)} points -> {csv_path}")
        else:
            base = PRESETS[args.preset]
            spec = SweepSpec(
                theta_deg=base.theta_deg,
                phi_deg=base.phi_deg,
                bob_bit=args.bit,
                n_photons=args.photons,
                siphon_totals=base.siphon_totals,
                mode=args.mode,
                seed=args.seed,
            )
            records = sweep_siphon(spec)
            csv_path = out_dir / f"{args.preset}.csv"
            meta_path = out_dir / f"{args.preset}.meta.txt"
            write_csv(records, csv_path)
            _write_sweep_meta(meta_path, spec)
            outputs.extend([csv_path, meta_path])
            print(
                f"sweep {args.preset}: theta={spec.theta_deg} phi={spec.phi_deg} "
                f"{len(records)} points -> {csv_path}"
            )
    else:
        if args.theta is None or args.phi is None or args.totals is None:
            print("sweep requires --preset or all of --theta/--phi/--totals", file=sys.stderr)
            return 2
        spec = SweepSpec(
            theta_deg=args.theta,
            phi_deg=args.phi,
            bob_bit=args.bit,
            n_photons=args.photons,
            siphon_totals=args.totals,
            mode=args.mode,
            seed=args.seed,
        )
        params.update({"theta_deg": args.theta, "phi_deg": args.phi})
        records = sweep_siphon(spec)
        csv_path = out_dir / "custom.csv"
        meta_path = out_dir / "custom.meta.txt"
        write_csv(records, csv_path)
        _write_sweep_meta(meta_path, spec)
        outputs.extend([csv_path, meta_path])
        print(f"sweep custom: theta={spec.theta_deg} phi={spec.phi_deg} -> {csv_path}")

    manifest = out_dir / "manifest.txt"
    _write_manifest(manifest, "sweep", params, args.seed, outputs, started)
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
    rho_true = ensemble_density(ens)
    config = TomographyConfig(photons_per_basis=args.photons_per_basis, seed=args.seed)
    counts = simulate_counts(rho_true, config)
    stokes = stokes_estimate(counts)
    rho_hat = reconstruct(counts)
    spectrum = eigendecompose(rho_hat)

    print(f"counts n_h={counts.n_h} n_v={counts.n_v} n_d={counts.n_d} "
          f"n_a={counts.n_a} n_r={counts.n_r} n_l={counts.n_l}")
    print(f"stokes_estimate=({stokes.s0:.6f}, {stokes.s1:.6f}, {stokes.s2:.6f}, {stokes.s3:.6f})")
    print(f"reconstructed={render_matrix(rho_hat)}")
    print(f"purity={purity(rho_hat):.6f}")
    print(f"lambda_max={spectrum.lambda_max:.6f}")
    print(f"lambda_min={format_decimal(spectrum.lambda_min)}")
    angle = spectrum.principal_angle_deg
    print("principal_angle_deg=" + ("" if angle is None else f"{angle:.6f}"))

    if args.out is not None:
        out = Path(args.out)
        out.write_text(COUNTS_CSV_HEADER + "\n" + counts.to_csv_row() + "\n")
        manifest = out.with_suffix(out.suffix + ".manifest")
        _write_manifest(
            manifest,
            "tomography",
            {
                "mix": "" if args.mix is None else ",".join(
                    f"{c}@{a}" for c, a in ens.components
                ),
                "theta_deg": "" if args.theta is None else args.theta,
                "photons_per_basis": args.photons_per_basis,
            },
            args.seed,
            [out],
            started,
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"protocol": cmd_protocol, "sweep": cmd_sweep, "tomography": cmd_tomography}
    try:
        return handlers[args.subcommand](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
