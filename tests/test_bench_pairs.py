"""tests/bench_pairs.py: its JSON layout, its statistics and its refusals.

No timing is checked: the one real run uses --seconds 0 and compares the
repository with itself.
"""

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SCRIPT = TESTS / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(*args, cwd):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


METRIC_KEYS = {"better", "parent", "change", "wins", "pairs", "gap_exceeds_parent_iqr",
               "gain_holds"}


def test_repository_against_itself_writes_every_key(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = run_script(ROOT, ROOT, "--workload", "genus", "--seeds", "1-2",
                      "--seconds", "0", "--out", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    stored = json.loads(out.read_text())
    assert list(stored) == ["workloads"] and list(stored["workloads"]) == ["genus"]
    result = stored["workloads"]["genus"]
    assert result == json.loads(proc.stdout)
    assert set(result) == {"seeds", "seconds", "provenance", "metrics", "pairs"}
    assert result["seeds"] == [1, 2] and result["seconds"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb", "ok_ratio"}
    for name, stats in result["metrics"].items():
        assert set(stats) == METRIC_KEYS, name
        for side in ("parent", "change"):
            assert set(stats[side]) == {"median", "q1", "q3", "iqr"}
        assert stats["pairs"] == 2 and 0 <= stats["wins"] <= 2
    assert result["metrics"]["ok_ratio"]["better"] == "higher"
    assert [p["first"] for p in result["pairs"]] == ["parent", "change"]
    assert [p["seed"] for p in result["pairs"]] == [1, 2]
    assert all(p["attempted"] == {"parent": 3, "change": 3} for p in result["pairs"])
    prov = result["provenance"]
    assert prov["parent"]["src_sha256"] == prov["change"]["src_sha256"]
    assert prov["parent"]["workload"] == "genus" and prov["parent"]["seed"] == 1


def test_summary_counts_wins_and_the_gap_against_the_parent_iqr():
    bench = load_bench_pairs()
    parent = [10, 11, 12, 13, 14, 10, 11, 12, 13, 14]
    change = [8, 9, 9, 10, 8, 9, 9, 10, 8, 15]  # better in 9 of 10 pairs
    pairs = [{"parent": {"wall_s": a, "ok_ratio": 1.0},
              "change": {"wall_s": b, "ok_ratio": 1.0}} for a, b in zip(parent, change)]
    stats = bench.summarize(pairs, {"wall_s": "lower", "ok_ratio": "higher"})
    wall = stats["wall_s"]
    assert wall["parent"] == {"median": 12, "q1": 11, "q3": 13, "iqr": 2}
    assert wall["change"]["median"] == 9
    assert wall["wins"] == 9 and wall["pairs"] == 10
    assert wall["gap_exceeds_parent_iqr"] and wall["gain_holds"]
    ok = stats["ok_ratio"]
    assert ok["wins"] == 0 and not ok["gap_exceeds_parent_iqr"] and not ok["gain_holds"]
    # the same gap the other way is no gain for a lower-is-better metric
    swapped = [{"parent": p["change"], "change": p["parent"]} for p in pairs]
    back = bench.summarize(swapped, {"wall_s": "lower"})["wall_s"]
    assert back["wins"] == 1 and back["gap_exceeds_parent_iqr"] and not back["gain_holds"]


def stub_checkout(path, correct):
    """A checkout whose perfbench/run.py prints a fixed provenance and result."""
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    result = {"correct": correct, "attempted": 1, "failed": int(not correct),
              "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    (path / "perfbench" / "run.py").write_text(textwrap.dedent(f"""\
        import json
        print("provenance " + json.dumps({{"src_sha256": "0"}}))
        print({json.dumps(json.dumps(result))})
        """))
    return path


@pytest.mark.parametrize("bad_side", ["parent", "change"])
def test_a_pair_with_an_incorrect_side_is_refused(tmp_path, bad_side):
    sides = {side: stub_checkout(tmp_path / side, side != bad_side)
             for side in ("parent", "change")}
    out = tmp_path / "BENCH.json"
    proc = run_script(sides["parent"], sides["change"], "--workload", "w", "--seeds", "3-4",
                      "--seconds", "0", "--out", out, cwd=tmp_path)
    assert proc.returncode == 1
    assert "refused" in proc.stderr and "correct is False" in proc.stderr
    assert not out.exists()
