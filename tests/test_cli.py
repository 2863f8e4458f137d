import contextlib
import hashlib
import io
import random

import numpy as np
import pytest

import polarsim as ps
from polarsim import cli
from polarsim.cli import main

# sha256 of every exact-mode preset CSV, recorded from the complex 2x2 matrix
# path before exact mode moved to the Bloch-vector kernel. Consecutive figures
# share one sweep; at bit 1 Eve's two injections (at phi + 90 and phi) cancel,
# so fig8-fig11, which all have theta = 30, agree there.
PRESET_CSV_SHA256 = {
    ("fig4", 0): "cc58a31cab8f6f01c2919dedac2dfa3f99d9304d3fc0fcd233b304e346c7f7e4",
    ("fig4", 1): "0546f92424c9038718e1d5f4964c8f5581d6329bf210dec1408d189340aef480",
    ("fig5", 0): "cc58a31cab8f6f01c2919dedac2dfa3f99d9304d3fc0fcd233b304e346c7f7e4",
    ("fig5", 1): "0546f92424c9038718e1d5f4964c8f5581d6329bf210dec1408d189340aef480",
    ("fig6", 0): "f914cbbc82ff76741cc2be1c547d04b7ec30822179254e75c484e647c3223c2b",
    ("fig6", 1): "5874893ba92923a17f7713ac80e7e404ceb4e6192216ee831b61590850d6a206",
    ("fig7", 0): "f914cbbc82ff76741cc2be1c547d04b7ec30822179254e75c484e647c3223c2b",
    ("fig7", 1): "5874893ba92923a17f7713ac80e7e404ceb4e6192216ee831b61590850d6a206",
    ("fig8", 0): "a4c9cc41d3918a6e18b54718134f74f95f5ca6079cfebb6b2beb29b8aa472e95",
    ("fig8", 1): "4f62c19aa9ee316efec46b1468ef109090ce308374bf2ad2c8d5f4c3fd49b141",
    ("fig9", 0): "a4c9cc41d3918a6e18b54718134f74f95f5ca6079cfebb6b2beb29b8aa472e95",
    ("fig9", 1): "4f62c19aa9ee316efec46b1468ef109090ce308374bf2ad2c8d5f4c3fd49b141",
    ("fig10", 0): "71a5379c5c48cebd55a04283baa423ed5514b83646817b754e6e979add009789",
    ("fig10", 1): "4f62c19aa9ee316efec46b1468ef109090ce308374bf2ad2c8d5f4c3fd49b141",
    ("fig11", 0): "71a5379c5c48cebd55a04283baa423ed5514b83646817b754e6e979add009789",
    ("fig11", 1): "4f62c19aa9ee316efec46b1468ef109090ce308374bf2ad2c8d5f4c3fd49b141",
}
DELTA_FAMILY_CSV_SHA256 = "300b34157bc815705f84cfeb60fa29596255dc844bfbea33e93f388e8897d6ab"

# sha256 of the `polarsim sweep` CSVs of bulk_sweep_argv(), recorded before
# exact sweep rows became tuples: four preset (theta, phi) pairs, 1,000 totals
# each at 10,000 photons. The full budget is among them; at bit 1 it leaves
# the received state maximally mixed, a row with an empty peak angle.
BULK_SWEEP_CSV_SHA256 = {
    (22.5, 30.0, 0): "8d2ae9249ca93e05619adf7932861b4bb98c329dc20278d7aca383e3e042c4c1",
    (22.5, 30.0, 1): "6f37d797c7944c5a264ac4ef94be42028a159df38494653fd1fe28d17f025392",
    (45.0, 60.0, 0): "3458717350513709673fc8177b348b9df15ec2bc7a16b615a259db33ad928d85",
    (45.0, 60.0, 1): "6dadacfa788faeab4044dd927d3e48e8949e0825317fc9866fa6509de63c4b14",
    (30.0, 60.0, 0): "fffbbbf0c49d2b36f3b1879ecc68342e00cd3421ff9e66ccdaa29aabaad34915",
    (30.0, 60.0, 1): "4d77fefe4bb0ed50e3bc5bc1a9e801426a8ad8a1f2aa429bf3047f6e0d613bcf",
    (30.0, 90.0, 0): "81d46b0839bf5302d47ae15f033cd4fe980633232cc2ceba1bd8ca3a711a62d4",
    (30.0, 90.0, 1): "8598e707a1cefbe4a922d72f785214d677975bf91d7457eaf8635f45851cf997",
}

# sha256 of sampled-mode preset CSVs, recorded again when sampled Eve's
# stage-2 siphon began to take only Alice's photons, as exact mode's does
SAMPLED_SWEEP_CSV_SHA256 = {
    ("fig4", 0): "d334bf7dc8fe331bca7c46904d8624770b4d1060998e9ca2dc4d871a423e7ba8",
    ("fig4", 1): "6847b9bd0a62f5d112f1869347a67c98d62c75873c868fc9fa5b58b1140765cd",
    ("fig4", 2): "df03cade8669d05ec7d5b0280a482c31b95ce3bf501bb534c67fc40443b136d6",
    ("fig8", 0): "81ded91df8044b6d125d92af91f605ded4681639e117a8c46015227697c6684a",
    ("fig8", 1): "1260a8c63039d16788635d9847cead600cfccaa5c93dd70f429e02949982c1e2",
    ("fig8", 2): "8ecf9372e103e27a73c289c0bd283d60c51d9fa7989c481b4f03e416cc2a5db7",
}

# sha256 of the stdout of exact_protocol_argvs(), recorded from the
# numpy-scalar 2x2 matrix helpers before they moved to Python numbers
EXACT_PROTOCOL_SHA256 = "290828f1e03715a35f7e3f94e117c34af46bdb4e964698ed7d8ccb3444ff3e59"

# the README's canonical attack run, recorded alongside the preset digests
CANONICAL_ATTACK_BLOCK = """\
decision=EveDetected
purity=0.978564
dist_h0=0.073205
dist_h90=1.397057
lambda_max=0.989165
lambda_min=0.010835
principal_angle_deg=32.933369
intensity_sent=100
intensity_after_stage1=100
intensity_after_stage2=100
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    return dict(line.split("=", 1) for line in out.strip().splitlines() if "=" in line)


def exact_protocol_argvs():
    """200 seeded exact `polarsim protocol` runs, n from 10 to 10^5. Eve
    siphons in about 70%; one in five of those is stealthy: she injects Bob's
    own output state (no stage-1 siphon at bit 1), so Alice receives a pure
    state equal to a hypothesis."""
    rng = random.Random("exact-protocol-golden")
    argvs = []
    for _ in range(200):
        n = round(10 ** rng.uniform(1.0, 5.0))
        theta = 0.5 * rng.randrange(360)
        bit = rng.randrange(2)
        s1 = s2 = 0
        phi = 0.0
        if rng.random() < 0.7:
            if rng.random() < 0.2:
                phi = theta + 90.0 * bit
                s1 = 0 if bit else rng.randint(0, n // 2)
            else:
                phi = 0.5 * rng.randrange(360)
                s1 = rng.randint(0, n // 2)
            s2 = rng.randint(0, n // 2)
        # Eve's angle is refused where she siphons nothing
        eve_angle = ["--eve-angle", str(phi)] if s1 or s2 else []
        argvs.append([
            "protocol", "--theta", str(theta), "--bit", str(bit), "--photons", str(n),
            "--eve-siphon1", str(s1), "--eve-siphon2", str(s2), *eve_angle, "--mode", "exact",
        ])
    return argvs


def bulk_sweep_argv(theta, phi, bit, out):
    """A custom exact sweep over 0, the full budget of 10,000 photons and 998
    seeded even totals between them."""
    rng = random.Random(f"bulk-sweep-golden:{theta}:{phi}:{bit}")
    totals = [0] + sorted(rng.sample(range(2, 10_000, 2), 998)) + [10_000]
    return ["sweep", "--theta", str(theta), "--phi", str(phi), "--bit", str(bit),
            "--photons", "10000", "--totals", ",".join(map(str, totals)), "--mode", "exact",
            "--out", str(out)]


def test_exact_protocol_output_golden():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in exact_protocol_argvs():
            assert main(argv) == 0, argv
    text = out.getvalue()
    assert "-0.000000" not in text
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_PROTOCOL_SHA256


class TestProtocolCommand:
    def test_worked_attack(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "protocol", "--theta", "30", "--bit", "0", "--photons", "100",
            "--eve-siphon1", "10", "--eve-siphon2", "10", "--eve-angle", "45",
            "--mode", "exact",
        )
        assert code == 0
        block = kv(out)
        assert block["decision"] == "EveDetected"
        assert float(block["lambda_max"]) == pytest.approx(0.9892, abs=5e-4)
        assert float(block["principal_angle_deg"]) == pytest.approx(32.93, abs=0.05)

    def test_worked_attack_golden_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "protocol", "--theta", "30", "--bit", "0", "--photons", "100",
            "--eve-siphon1", "10", "--eve-siphon2", "10", "--eve-angle", "45",
            "--mode", "exact",
        )
        assert code == 0
        assert out == CANONICAL_ATTACK_BLOCK

    def test_no_eve_bit1(self, capsys):
        code, out, _ = run_cli(
            capsys, "protocol", "--theta", "30", "--bit", "1", "--photons", "100",
            "--mode", "exact",
        )
        assert code == 0
        assert kv(out)["decision"] == "Bit1"

    def test_excess_siphon_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "protocol", "--theta", "30", "--bit", "0", "--photons", "100",
            "--eve-siphon1", "60", "--eve-siphon2", "60", "--eve-angle", "45",
        )
        assert code == 1
        assert "siphon" in err

    def test_invalid_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["protocol", "--theta", "30", "--bit", "0", "--photons", "100",
                  "--no-such-flag"])
        assert exc.value.code == 2

    def test_out_writes_csv_and_manifest(self, capsys, tmp_path):
        out_file = tmp_path / "run.csv"
        code, _, _ = run_cli(
            capsys,
            "protocol", "--theta", "30", "--bit", "0", "--photons", "100",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("decision,purity,dist_h0")
        assert lines[1].startswith("Bit0,")
        manifest = (tmp_path / "run.csv.manifest").read_text()
        assert "subcommand=protocol" in manifest
        assert "rng_algorithm=numpy-pcg64" in manifest
        assert f"output={out_file}" in manifest


    @pytest.mark.parametrize("mode", [[], ["--mode", "exact"]])
    @pytest.mark.parametrize("flag", [["--seed", "0"], ["--photons-per-basis", "100000"]])
    def test_exact_mode_refuses_sampled_flags(self, capsys, tmp_path, mode, flag):
        # exact mode draws nothing and measures nothing, so neither flag
        # reaches the result, whatever its value
        code, out, err = run_cli(
            capsys, "protocol", "--theta", "30", "--bit", "0", "--photons", "100", *mode, *flag,
            "--out", str(tmp_path / "run.csv"),
        )
        assert code == 2
        assert f"protocol --mode exact takes no {flag[0]}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", [["--mode", "exact"], ["--mode", "sampled"]])
    @pytest.mark.parametrize("angle", ["45", "0"])
    def test_no_siphon_refuses_eve_angle(self, capsys, tmp_path, mode, angle):
        # with no siphon Eve injects nothing, so her angle, even at its
        # default, cannot reach the result
        code, out, err = run_cli(
            capsys, "protocol", "--theta", "30", "--bit", "0", "--photons", "100",
            "--eve-siphon1", "0", "--eve-angle", angle, *mode, "--out", str(tmp_path / "run.csv"),
        )
        assert code == 2
        assert "protocol without a siphon takes no --eve-angle" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_every_ignored_flag_is_named_in_one_run(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "protocol", "--theta", "30", "--bit", "0", "--photons", "100",
            "--mode", "exact", "--seed", "1", "--eve-angle", "4",
            "--out", str(tmp_path / "run.csv"),
        )
        assert code == 2
        assert err.splitlines() == [
            "protocol --mode exact takes no --seed",
            "protocol without a siphon takes no --eve-angle",
        ]
        assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    def test_fig4_preset(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "fig4", "--out", str(tmp_path))
        assert code == 0
        csv_lines = (tmp_path / "fig4.csv").read_text().splitlines()
        lambdas = [float(row.split(",")[1]) for row in csv_lines[1:]]
        assert all(b <= a for a, b in zip(lambdas, lambdas[1:]))
        meta = (tmp_path / "fig4.meta.txt").read_text()
        assert "theta_deg=22.5" in meta
        assert "phi_deg=30.0" in meta
        assert (tmp_path / "manifest.txt").exists()

    def test_delta_family_preset(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep", "--preset", "delta-family", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "delta_family.csv").read_text().splitlines()
        deltas = {line.split(",")[0] for line in lines[1:]}
        assert deltas == {"7.500000", "15.000000", "30.000000", "60.000000"}

    def test_custom_sweep_worked_example(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "sweep", "--theta", "30", "--phi", "45", "--totals", "20",
            "--out", str(tmp_path),
        )
        assert code == 0
        row = (tmp_path / "custom.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(0.9892, abs=5e-4)

    def test_unknown_preset_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "fig99", "--out", "/tmp/x"])
        assert exc.value.code == 2

    def test_missing_custom_flags_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--theta", "30", "--out", str(tmp_path))
        assert code == 2
        assert "--preset" in err

    def test_bad_totals_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--theta", "30", "--phi", "45", "--totals", "1,x",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "bad totals list '1,x'" in capsys.readouterr().err

    def test_domain_error_creates_no_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "o1"
        code, _, err = run_cli(
            capsys, "sweep", "--theta", "30", "--phi", "45", "--totals", "0,5",
            "--out", str(out_dir),
        )
        assert code == 1
        assert "even integers, got 5" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("preset, bit", sorted(PRESET_CSV_SHA256))
    def test_preset_csv_golden_bytes(self, capsys, tmp_path, preset, bit):
        code, _, _ = run_cli(
            capsys, "sweep", "--preset", preset, "--bit", str(bit), "--mode", "exact",
            "--out", str(tmp_path),
        )
        assert code == 0
        digest = hashlib.sha256((tmp_path / f"{preset}.csv").read_bytes()).hexdigest()
        assert digest == PRESET_CSV_SHA256[(preset, bit)]

    @pytest.mark.parametrize("theta, phi, bit", sorted(BULK_SWEEP_CSV_SHA256))
    def test_bulk_sweep_csv_golden_bytes(self, capsys, tmp_path, theta, phi, bit):
        code, _, _ = run_cli(capsys, *bulk_sweep_argv(theta, phi, bit, tmp_path))
        assert code == 0
        csv = (tmp_path / "custom.csv").read_text()
        assert len(csv.splitlines()) == 1001
        assert (",," in csv) is (bit == 1)
        assert hashlib.sha256(csv.encode()).hexdigest() == BULK_SWEEP_CSV_SHA256[(theta, phi, bit)]

    @pytest.mark.parametrize("preset, seed", sorted(SAMPLED_SWEEP_CSV_SHA256))
    def test_sampled_sweep_csv_golden_bytes(self, capsys, tmp_path, preset, seed):
        code, _, _ = run_cli(
            capsys, "sweep", "--preset", preset, "--mode", "sampled", "--seed", str(seed),
            "--out", str(tmp_path),
        )
        assert code == 0
        digest = hashlib.sha256((tmp_path / f"{preset}.csv").read_bytes()).hexdigest()
        assert digest == SAMPLED_SWEEP_CSV_SHA256[(preset, seed)]

    @pytest.mark.parametrize("preset", ["delta-family", "fig12", "fig13"])
    def test_delta_family_csv_golden_bytes(self, capsys, tmp_path, preset):
        code, _, _ = run_cli(capsys, "sweep", "--preset", preset, "--out", str(tmp_path))
        assert code == 0
        digest = hashlib.sha256((tmp_path / "delta_family.csv").read_bytes()).hexdigest()
        assert digest == DELTA_FAMILY_CSV_SHA256

    @pytest.mark.parametrize("preset", ["delta-family", "fig12", "fig13"])
    def test_delta_family_refuses_sampled_mode(self, capsys, tmp_path, preset):
        code, _, err = run_cli(
            capsys, "sweep", "--preset", preset, "--mode", "sampled", "--out", str(tmp_path),
        )
        assert code == 2
        assert "exact-only" in err
        assert not (tmp_path / "manifest.txt").exists()

    @pytest.mark.parametrize("preset", ["delta-family", "fig12", "fig13"])
    @pytest.mark.parametrize("flag", [
        ["--seed", "0"], ["--bit", "1"], ["--photons", "100"],
        ["--theta", "10"], ["--phi", "80"], ["--totals", "0,2"],
    ])
    def test_delta_family_refuses_unused_flags(self, capsys, tmp_path, preset, flag):
        # the grid is fixed: none of these reaches its CSV, so any explicit
        # value, the default included, is a usage error
        code, _, err = run_cli(capsys, "sweep", "--preset", preset, *flag, "--out", str(tmp_path))
        assert code == 2
        assert f"takes no {flag[0]}" in err
        assert not (tmp_path / "manifest.txt").exists()

    def test_flag_ignored_twice_is_named_once(self, capsys, tmp_path):
        # a delta-family run is exact too, and neither path reads --seed
        code, _, err = run_cli(
            capsys, "sweep", "--preset", "delta-family", "--seed", "3", "--out", str(tmp_path),
        )
        assert code == 2
        assert err.count("--seed") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("preset", sorted({preset for preset, _ in PRESET_CSV_SHA256}))
    @pytest.mark.parametrize("flag", [["--theta", "10"], ["--phi", "80"], ["--totals", "0,2"]])
    def test_preset_refuses_custom_flags(self, capsys, tmp_path, preset, flag):
        # a preset fixes the angles and the totals
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "sweep", "--preset", preset, *flag, "--out", str(out_dir))
        assert code == 2
        assert f"sweep --preset {preset} takes no {flag[0]}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("mode", [[], ["--mode", "exact"]])
    @pytest.mark.parametrize("path", [
        ["--preset", "fig4"], ["--theta", "30", "--phi", "45", "--totals", "0,10"],
    ])
    def test_exact_mode_refuses_seed(self, capsys, tmp_path, mode, path):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "sweep", *path, *mode, "--seed", "0", "--out", str(out_dir))
        assert code == 2
        assert "sweep --mode exact takes no --seed" in err
        assert not out_dir.exists()

    def test_sampled_mode_takes_seed(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sweep", "--preset", "fig4", "--mode", "sampled", "--seed", "3",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "seed=3" in (tmp_path / "fig4.meta.txt").read_text().splitlines()
        assert "seed=3" in (tmp_path / "manifest.txt").read_text().splitlines()

    def test_exact_meta_bytes(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep", "--preset", "fig4", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fig4.meta.txt").read_text() == (
            "theta_deg=22.5\nphi_deg=30.0\nbob_bit=0\nn_photons=100\n"
            "siphon_totals=0,10,20,30,40,50\nsiphon_split=even-across-two-stages\n"
            "mode=exact\nseed=0\nrng_algorithm=numpy-pcg64\n"
        )

    def test_sampled_meta_records_photons_per_basis(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sweep", "--theta", "30", "--phi", "45", "--totals", "0,20",
            "--mode", "sampled", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "custom.meta.txt").read_text().splitlines()
        assert lines[-3:] == ["seed=0", "photons_per_basis=100000", "rng_algorithm=numpy-pcg64"]

    def test_reproducible_output(self, capsys, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_cli(capsys, "sweep", "--preset", "fig4", "--mode", "exact", "--out", str(d1))
        run_cli(capsys, "sweep", "--preset", "fig4", "--mode", "exact", "--out", str(d2))
        assert (d1 / "fig4.csv").read_bytes() == (d2 / "fig4.csv").read_bytes()


class TestTomographyCommand:
    def test_mixture_reconstruction(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tomography", "--mix", "80@30,20@45",
            "--photons-per-basis", "1000000", "--seed", "7",
        )
        assert code == 0
        block = kv(out)
        # 3 sigma statistical bound around the exact mixture values
        assert float(block["purity"]) == pytest.approx(0.978564, abs=0.01)
        assert float(block["lambda_max"]) == pytest.approx(0.98916, abs=0.01)

    def test_pure_state_stokes(self, capsys):
        code, out, _ = run_cli(
            capsys, "tomography", "--theta", "45", "--photons-per-basis", "100000",
            "--seed", "1",
        )
        assert code == 0
        stokes = kv(out)["stokes_estimate"].strip("()").split(",")
        assert float(stokes[1]) == pytest.approx(1.0, abs=0.02)
        assert float(stokes[2]) == pytest.approx(0.0, abs=0.02)
        assert float(stokes[3]) == pytest.approx(0.0, abs=0.02)

    def test_small_deterministic_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "tomography", "--theta", "0", "--photons-per-basis", "10",
            "--seed", "1",
        )
        assert code == 0
        assert "n_h=10 n_v=0" in out

    def test_estimate_rounding_to_zero_prints_no_sign(self, capsys):
        # above about 2e6 photons per basis an s2 estimate can round to zero
        # from below
        code, out, _ = run_cli(
            capsys, "tomography", "--theta", "45", "--photons-per-basis", "5000000",
            "--seed", "1610",
        )
        assert code == 0
        assert kv(out)["stokes_estimate"] == "(1.000000, 1.000000, 0.000000, 0.000280)"
        assert "-0.000000" not in out

    def test_builds_one_matrix_to_print(self, capsys, monkeypatch):
        # the read-out comes off the reconstructed Stokes vector; the only
        # matrix is the one printed as `reconstructed`
        built = []
        original = ps.DensityMatrix.__post_init__

        def spy(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(ps.DensityMatrix, "__post_init__", spy)
        code, out, _ = run_cli(capsys, "tomography", "--mix", "80@30,20@45", "--seed", "7")
        assert code == 0 and len(built) == 1
        assert kv(out)["reconstructed"] == ps.polarization.render_matrix(built[0])

    def test_bad_mixture_syntax_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tomography", "--mix", "80@30,oops"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mix, message", [
        ("80@nan", "polarization angle must be finite, got nan"),
        ("-5@30", "photon counts must be non-negative, got -5"),
    ], ids=["nan-angle", "negative-count"])
    def test_invalid_mixture_names_the_problem(self, capsys, mix, message):
        with pytest.raises(SystemExit) as exc:
            main(["tomography", f"--mix={mix}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --mix: {message}" in err
        assert "_parse_mix" not in err

    def test_empty_mixture_is_domain_error(self, capsys, tmp_path):
        out_file = tmp_path / "f.csv"
        code, out, err = run_cli(
            capsys, "tomography", "--mix", "0@30,0@45", "--out", str(out_file),
        )
        assert code == 1
        assert out == ""
        assert err == "error: ensemble has no photons\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_state_flags(self, capsys):
        code, _, err = run_cli(capsys, "tomography")
        assert code == 2
        assert "--theta or --mix" in err

    def test_theta_with_mix_usage_error(self, capsys, tmp_path):
        # the mixture is what gets measured; a --theta beside it would only
        # reach the manifest
        out_file = tmp_path / "counts.csv"
        with pytest.raises(SystemExit) as exc:
            main(["tomography", "--theta", "30", "--mix", "1@80", "--out", str(out_file)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--mix" in err and "--theta" in err
        assert list(tmp_path.iterdir()) == []

    def test_counts_csv_output(self, capsys, tmp_path):
        out_file = tmp_path / "counts.csv"
        code, _, _ = run_cli(
            capsys, "tomography", "--theta", "0", "--photons-per-basis", "10",
            "--seed", "1", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "n_h,n_v,n_d,n_a,n_r,n_l"
        assert lines[1].split(",")[0] == "10"
        assert (tmp_path / "counts.csv.manifest").exists()

    def test_mixture_manifest_records_the_mix(self, capsys, tmp_path):
        out_file = tmp_path / "counts.csv"
        code, _, _ = run_cli(
            capsys, "tomography", "--mix", "80@30,20@45", "--out", str(out_file),
        )
        assert code == 0
        manifest = (tmp_path / "counts.csv.manifest").read_text().splitlines()
        assert "mix=80@30.0,20@45.0" in manifest
        assert "theta_deg=" in manifest


def test_non_number_angle_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--theta", "abc", "--bit", "0", "--photons", "10"])
    assert exc.value.code == 2
    assert "argument --theta: invalid float value: 'abc'" in capsys.readouterr().err


HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ["protocol", "--theta", "0", "--bit", "0", "--photons", "10", "--mode", "sampled",
     "--photons-per-basis", HUGE, "--out", "OUT/row.csv"],
    ["tomography", "--theta", "0", "--photons-per-basis", HUGE, "--out", "OUT/counts.csv"],
    ["sweep", "--theta", "0", "--phi", "10", "--totals", "0,2", "--photons", HUGE,
     "--out", "OUT/o"],
], ids=["protocol-photons-per-basis", "tomography-photons-per-basis", "sweep-photons"])
def test_count_beyond_numpy_int64_is_domain_error(capsys, tmp_path, argv):
    # numpy's binomial draw and the sweeps' int64 arithmetic would raise
    # OverflowError on such a count
    argv = [arg.replace("OUT", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert f"at most {np.iinfo(np.int64).max}, got {HUGE}" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["protocol", "--theta=ANGLE", "--bit", "0", "--photons", "10", "--out", "OUT/row.csv"],
    ["protocol", "--theta", "30", "--bit", "0", "--photons", "10", "--eve-siphon1", "2",
     "--eve-angle=ANGLE", "--out", "OUT/row.csv"],
    ["sweep", "--theta=ANGLE", "--phi", "45", "--totals", "0,10", "--out", "OUT/sweep"],
    ["sweep", "--theta", "30", "--phi=ANGLE", "--totals", "0,10", "--out", "OUT/sweep"],
    ["tomography", "--theta=ANGLE", "--out", "OUT/counts.csv"],
], ids=["protocol-theta", "protocol-eve-angle", "sweep-theta", "sweep-phi", "tomography-theta"])
def test_non_finite_angle_usage_error(capsys, tmp_path, argv, value):
    # every angle flag refuses a non-finite value while parsing, as --mix does
    argv = [arg.replace("ANGLE", value).replace("OUT", str(tmp_path)) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "polarization angle must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand, flag, key", [
    ("protocol", "--seed", "seed"),
    ("protocol", "--photons-per-basis", "photons_per_basis"),
    ("protocol", "--eve-angle", "eve_angle"),
    ("sweep", "--bit", "bit"),
    ("sweep", "--photons", "photons"),
    ("sweep", "--seed", "seed"),
])
def test_help_states_the_defaults(capsys, monkeypatch, subcommand, flag, key):
    # the help text reads the default it states, so a changed one shows
    monkeypatch.setitem(cli.DEFAULTS, key, 4321)
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([subcommand, "-h"])
    assert exc.value.code == 0
    # one chunk per option: its name, metavar and help text
    chunks = " ".join(capsys.readouterr().out.split()).split(" --")
    [chunk] = [c for c in chunks if c.startswith(flag[2:] + " ")]
    assert chunk.endswith("(default 4321)")
    assert sum("(default 4321)" in c for c in chunks) == 1


def test_parser_is_built_once_per_process(capsys, monkeypatch, tmp_path):
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["protocol", "--theta", "30", "--bit", "0", "--photons", "10"]) == 0
        assert main(["sweep", "--preset", "fig4", "--out", str(tmp_path)]) == 0
        assert main(["sweep", "--theta", "30", "--phi", "45", "--totals", "0,3",
                     "--out", str(tmp_path)]) == 1
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert "decision=Bit0" in capsys.readouterr().out


# manifest lines that record where a run came from, not a flag it read
PROVENANCE = {"spec_revision", "subcommand", "rng_algorithm", "output", "duration_s"}


def flag_of(key):
    """The flag a manifest key records."""
    return "--" + key.removesuffix("_deg").replace("_", "-")


def argv_from_manifest(path):
    """The run a manifest records: key `theta_deg` is flag `--theta`, and an
    empty value is a flag the run did not take."""
    fields = [line.split("=", 1) for line in path.read_text().splitlines()]
    argv = [dict(fields)["subcommand"]]
    for key, value in fields:
        if key not in PROVENANCE and value:
            argv += [flag_of(key), value]
    return argv


def run_with_out(capsys, argv, directory, csv_name):
    """Run `argv` with --out in a new `directory`: a sweep writes into it,
    the others to their CSV file there. The CSV bytes and manifest path."""
    directory.mkdir()
    sweep = argv[0] == "sweep"
    assert main([*argv, "--out", str(directory if sweep else directory / csv_name)]) == 0
    capsys.readouterr()
    manifest = directory / ("manifest.txt" if sweep else csv_name + ".manifest")
    return (directory / csv_name).read_bytes(), manifest


# each run with its CSV and the manifest keys of the flags its path does not read
MANIFEST_CASES = [
    pytest.param(["protocol", "--theta", "30", "--bit", "1", "--photons", "100",
                  "--eve-siphon1", "10", "--eve-siphon2", "20", "--eve-angle", "45"],
                 "row.csv", {"seed", "photons_per_basis"}, id="protocol-exact"),
    pytest.param(["protocol", "--theta", "30", "--bit", "1", "--photons", "100",
                  "--eve-siphon1", "10", "--eve-siphon2", "20", "--eve-angle", "45",
                  "--mode", "sampled", "--seed", "7", "--photons-per-basis", "1000"],
                 "row.csv", set(), id="protocol-sampled"),
    pytest.param(["protocol", "--theta", "30", "--bit", "1", "--photons", "100"],
                 "row.csv", {"seed", "photons_per_basis", "eve_angle_deg"},
                 id="protocol-exact-no-siphon"),
    pytest.param(["sweep", "--preset", "fig8", "--bit", "1", "--photons", "60"],
                 "fig8.csv", {"theta_deg", "phi_deg", "totals", "seed"}, id="sweep-preset"),
    pytest.param(["sweep", "--preset", "fig4", "--mode", "sampled", "--seed", "3",
                  "--photons", "80"],
                 "fig4.csv", {"theta_deg", "phi_deg", "totals"}, id="sweep-preset-sampled"),
    pytest.param(["sweep", "--theta", "30", "--phi", "45", "--totals", "0,10,40", "--bit", "1",
                  "--photons", "200"],
                 "custom.csv", {"preset", "seed"}, id="sweep-custom"),
    pytest.param(["sweep", "--preset", "delta-family"], "delta_family.csv",
                 {"theta_deg", "phi_deg", "totals", "bit", "photons", "seed"},
                 id="sweep-delta-family"),
    pytest.param(["tomography", "--mix", "80@30,20@45", "--seed", "7",
                  "--photons-per-basis", "1000"],
                 "counts.csv", {"theta_deg"}, id="tomography-mix"),
    pytest.param(["tomography", "--theta", "10", "--seed", "3"], "counts.csv", {"mix"},
                 id="tomography-theta"),
]


@pytest.mark.parametrize("argv, csv_name, unread", MANIFEST_CASES)
def test_manifest_reruns_its_run(capsys, tmp_path, argv, csv_name, unread):
    csv, manifest = run_with_out(capsys, argv, tmp_path / "first", csv_name)
    rerun, _ = run_with_out(capsys, argv_from_manifest(manifest), tmp_path / "second", csv_name)
    assert rerun == csv


@pytest.mark.parametrize("argv, csv_name, unread", MANIFEST_CASES)
def test_manifest_records_every_flag(capsys, tmp_path, argv, csv_name, unread):
    # every flag of the subcommand but --out, empty exactly where the path
    # does not read it
    _, manifest = run_with_out(capsys, argv, tmp_path / "out", csv_name)
    fields = [line.split("=", 1) for line in manifest.read_text().splitlines()]
    params = {key: value for key, value in fields if key not in PROVENANCE}
    [subparsers] = [action for action in cli.build_parser()._actions
                    if action.dest == "subcommand"]
    flags = {flag for action in subparsers.choices[argv[0]]._actions
             for flag in action.option_strings} - {"-h", "--help", "--out"}
    assert sorted(map(flag_of, params)) == sorted(flags)
    assert {key for key, value in params.items() if value == ""} == unread
