"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import oracle
import run
import tracing
import workloads
from workloads import cli, protocol

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name, tmp_path):
    first = workloads.create(name, 7, tmp_path).inputs
    assert first == workloads.create(name, 7, tmp_path).inputs
    assert first != workloads.create(name, 8, tmp_path).inputs


def test_transmission_generator_covers_its_cases():
    pool = workloads.generate_transmissions("exact", 1)
    eve = [p for p in pool if p.eve]
    assert 0.65 < len(eve) / len(pool) < 0.75
    assert any(p.phi == p.theta for p in eve) and any(p.phi == p.theta + 90 for p in eve)
    assert min(p.n for p in pool) < 200 and max(p.n for p in pool) > 50_000
    assert all(p.s1 <= p.n // 4 and p.s2 <= p.n // 4 for p in pool)


def _reported(outcome):
    return dict(
        purity=outcome.purity_received,
        lambda_max=outcome.spectrum.lambda_max,
        lambda_min=outcome.spectrum.lambda_min,
        angle_deg=outcome.spectrum.principal_angle_deg,
        dist_h0=outcome.dist_to_h0,
        dist_h90=outcome.dist_to_h90,
        decision=outcome.decision.value,
        intensities=outcome.stage_intensities,
    )


def test_oracle_agrees_with_exact_mode(tmp_path):
    w = workloads.Transmit("exact", 3, tmp_path)
    for i, p in enumerate(w.inputs[:500]):
        outcome = protocol.run_protocol(w.config(p))
        assert w.check(i, p, outcome, outcome.to_key_value_block()), p


def test_oracle_flags_a_1e6_perturbation(tmp_path):
    w = workloads.Transmit("exact", 3, tmp_path)
    p = next(p for p in w.inputs if p.eve and p.s1 and p.s2 and p.phi != p.theta)
    outcome = protocol.run_protocol(w.config(p))
    expected = oracle.expect_transmission(p.n, p.theta, p.bit, p.eve, p.s1, p.s2, p.phi)
    assert math.hypot(*expected.r) > 0.1
    reported = _reported(outcome)
    assert oracle.mismatches(expected, **reported) == []
    for field, name in (("purity", "purity"), ("lambda_max", "lambda_max"),
                        ("lambda_min", "lambda_min"), ("angle_deg", "principal_angle"),
                        ("dist_h0", "dist_h0"), ("dist_h90", "dist_h90")):
        perturbed = dict(reported, **{field: reported[field] + 1e-6})
        assert name in oracle.mismatches(expected, **perturbed)
    flipped = oracle.BIT0 if reported["decision"] != oracle.BIT0 else oracle.BIT1
    assert "decision" in oracle.mismatches(expected, **dict(reported, decision=flipped))


def test_sampled_invariants_hold_and_flag_a_perturbation(tmp_path):
    w = workloads.Transmit("sampled", 3, tmp_path)
    for i, p in enumerate(w.inputs[:200]):
        outcome = protocol.run_protocol(w.config(p))
        assert w.check(i, p, outcome, outcome.to_key_value_block()), p
    rho = outcome.rho_received.matrix
    args = dict(trace=float((rho[0, 0] + rho[1, 1]).real), purity=outcome.purity_received,
                lambda_max=outcome.spectrum.lambda_max)
    assert oracle.sampled_mismatches(**args) == []
    for field in args:
        assert oracle.sampled_mismatches(**dict(args, **{field: args[field] + 1e-6})), field


def test_sweep_checks_catch_a_changed_csv(tmp_path):
    w = workloads.SweepBulk(5, tmp_path)
    spec = workloads.SiphonSweep(30.0, 60.0, 1, (0, 2, 40, 400))
    result = w._run(0, spec, None)
    assert (result.ops, result.failed) == (4, 0)
    csv = (tmp_path / "call0" / "custom.csv").read_bytes()
    assert w.check(0, spec, None, csv.replace(b"true", b"false"), 4) == 4
    lines = csv.decode().splitlines()
    fields = lines[2].split(",")
    lines[2] = ",".join([fields[0], "0.500000"] + fields[2:])
    fresh = workloads.SweepBulk(5, tmp_path)
    assert fresh.check(0, spec, None, ("\n".join(lines) + "\n").encode(), 4) == 1


def _snapshot():
    names = {}
    for module_name, module in tracing.MODULES.items():
        for name, value in vars(module).items():
            names[(module_name, name)] = value
            if isinstance(value, type):
                names.update({(module_name, name, a): v for a, v in vars(value).items()})
    return names


def test_tracing_leaves_no_patched_name_behind():
    before = _snapshot()
    original = protocol.ensemble_density
    with tracing.patched(tracing.Tracer()):
        assert protocol.ensemble_density is not original
        assert hasattr(cli.sweep_siphon, "__bench_original__")
        assert hasattr(protocol.DensityMatrix.__dict__["__post_init__"], "__bench_original__")
        assert len(tracing.leftover_wrappers()) > len(tracing.TARGETS)
    assert tracing.leftover_wrappers() == []
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())

    with pytest.raises(RuntimeError), tracing.patched(tracing.Tracer()):
        raise RuntimeError("call failed")
    assert tracing.leftover_wrappers() == []


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        protocol.run_protocol(protocol.ProtocolConfig(n_photons=100, alice_angle_deg=30.0, bob_bit=0))
    run_span = next(s for s in tracer.spans if s[3] == "protocol.run_protocol")
    children = [s for s in tracer.spans if s[1] == run_span[0]]
    assert {s[3] for s in children} >= {"polarization.ensemble_density", "protocol.decide"}
    # the decision hook runs after run_protocol returned, in a root span of its own
    assert all(s[2] == run_span[0] for s in tracer.spans if s[3] != tracing.HOOK_SPAN)
    child_ns = sum(s[5] - s[4] for s in children)
    assert tracer.self_ns["protocol.run_protocol"] == run_span[5] - run_span[4] - child_ns



def test_hooks_are_booked_to_the_harness(tmp_path):
    w = workloads.create("transmit_sampled", 11, tmp_path)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert w.call(0, tracer).failed == 0
    names = {s[0]: s[3] for s in tracer.spans}
    hook_parents = {names[s[1]] for s in tracer.spans if s[3] == tracing.HOOK_SPAN}
    # the clip hook runs under run_protocol, the decision hook under the call
    assert hook_parents == {"protocol.run_protocol", workloads.CALL_SPAN}

def _traced_layers(name, calls, tmp_path):
    w = workloads.create(name, 11, tmp_path)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        results = [w.call(i, tracer) for i in range(calls)]
    assert sum(r.failed for r in results) == 0
    return run.layer_metrics(tracer, sum(r.ops for r in results), 1.0, 1.0)


def _nonzero(metrics, prefix):
    return [k for k, v in metrics.items() if k.startswith(prefix) and v]


def test_layer_activity_matches_each_workload(tmp_path):
    exact = _traced_layers("transmit_exact", 200, tmp_path)
    sampled = _traced_layers("transmit_sampled", 200, tmp_path)
    bulk = _traced_layers("sweep_bulk", 5, tmp_path)
    assert _nonzero(exact, "tomography.") == [] and _nonzero(bulk, "tomography.") == []
    assert set(_nonzero(sampled, "tomography.")) == {
        "tomography.self_us", "tomography.sample_counts.self_us",
        "tomography.reconstruct.self_us", "tomography.clip_share"}
    for metrics in (exact, sampled):
        assert _nonzero(metrics, "sweeps.") == [] and _nonzero(metrics, "cli.") == []
        assert metrics["protocol.config_build_us"] > 0 and metrics["protocol.render_us"] > 0
    assert set(_nonzero(bulk, "sweeps.")) == {
        "sweeps.self_us", "sweeps.sweep_siphon.self_us", "sweeps.sweep_delta_family.self_us",
        "sweeps.csv_write.self_us", "sweeps.csv_bytes"}
    assert bulk["cli.main.self_us"] > 0
    assert exact["polarization.density_matrix.constructions"] > 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads(compare.BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = run.layer_metrics(tracing.Tracer(), 1, 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in layers}


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(parent, [80.0, 81.0, 79.0, 80.5, 79.5], "higher", 0.1)[0] == "REGRESSION"
    assert compare.verdict(parent, [98.0, 99.0, 97.0, 98.5, 97.5], "higher", 0.1)[0] == "ok"
    assert compare.verdict(parent, [95.0, 140.0, 60.0, 90.0, 70.0], "higher", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, [80.0, 81.0, 79.0, 80.5, 79.5], "lower", 0.1)[0] == "ok"


def test_fails_without_the_program(tmp_path):
    shutil.copy(compare.BENCHMARK_JSON, tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "transmit_exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
