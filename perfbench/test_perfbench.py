"""Checks of the benchmark itself: tracer wiring, trace repeatability, checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_closed_form_term_counts():
    assert run.trees_in_complete(7) == 29_190
    assert run.cycles_to_odd_cycle(8, 5) == 7_962


def test_host_scaling_cancels_a_slower_host():
    # the same work on a host running half as fast, probe ticks included
    fast = run.host_scaled(1.0 + 0.02, [(0.001, 0.0005)] * 20)
    slow = run.host_scaled(2.0 + 0.04, [(0.002, 0.001)] * 20)
    assert fast == pytest.approx(slow)
    assert fast == pytest.approx(run.PROBE_NOMINAL_S / 0.0005)
    assert run.host_scaled(0.3, []) == 0.3


def test_missing_name_fails_before_rebinding():
    import hompoly.topo as topo
    before = topo.is_planar
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.Tracer().install({"topo": ("is_planar", "no_such_function")})
    with pytest.raises(LookupError, match="no_such_module"):
        tracer.resolve({"no_such_module": ("f",)})
    assert topo.is_planar is before


def test_install_rebinds_every_import():
    import hompoly
    from hompoly import cli, genfun, graphs, reductions
    from hompoly.poly import Polynomial
    originals = tracer.resolve()
    t = tracer.Tracer()
    t.install()
    hom = graphs.is_homomorphic
    assert hom.__wrapped__ is originals["graphs.is_homomorphic"]
    assert genfun.is_homomorphic is hom and reductions.is_homomorphic is hom
    assert hompoly.is_homomorphic is hom
    assert cli.hom_poly is genfun.hom_poly is reductions.hom_poly
    assert cli.hom_poly.__wrapped__ is originals["genfun.hom_poly"]
    assert Polynomial.__add__.__wrapped__ is originals["poly.Polynomial.__add__"]
    p = Polynomial.constant(1) + Polynomial.constant(2)
    assert p == Polynomial.constant(3)
    assert t.stats["poly.Polynomial.__add__"][0] == 1


def test_failing_command_is_counted_not_raised(tmp_path):
    inputs = run.write_inputs(0, tmp_path)
    bad_h = run.Command("bad-h", ("verify", "--lemma", "planar-permutation",
                                  "--h-file", str(tmp_path / "missing.json"),
                                  "--out", "@out"), run.check_verify)
    sample = run.run_command(bad_h, inputs, tmp_path, trace=False)
    assert sample.error == "exit code 2"
    wrong = run.Command("wrong-genus", ("genus", "@block"), run.check_genus(2))
    sample = run.run_command(wrong, inputs, tmp_path, trace=False)
    assert sample.error == "genus 1, expected 2"


def _counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def test_traced_counts_repeat_across_runs_and_seeds():
    first = run.measure("gadget-planarity", seed=1, seconds=0, trace=True)["result"]
    second = run.measure("gadget-planarity", seed=2, seconds=0, trace=True)["result"]
    assert first["correct"] and second["correct"]
    m = first["metrics"]
    assert _counts(m) == _counts(second["metrics"])
    assert m["graphs.recognize.calls"]["value"] > 0
    assert m["graphs.recognize.calls"]["value"] == \
        m["reductions.budget_survivors.candidates"]["value"]
    module_self = sum(m[f"{mod}.self_s"]["value"] for mod in run.MODULES)
    assert module_self + m["trace.unattributed_s"]["value"] == \
        pytest.approx(m["trace.wall_s"]["value"], abs=1e-9)
    assert "trace.overhead_s" in m

    declared = {d["name"]: d["unit"] for d in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in m.items()} == declared


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {d["name"]: d["unit"] for d in BENCHMARK["end_to_end"]} == \
        run.END_TO_END_UNITS
