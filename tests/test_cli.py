"""Command-line interface: formats, exit codes, report determinism."""

import hashlib
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hompoly import Graph
from hompoly.cli import _dump_poly, main
from hompoly.poly import Polynomial, edge_var, loop_var, monomial, vertex_var

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture()
def graph_files(tmp_path):
    paths = {}
    for name, g in (("k2", Graph.single_edge()),
                    ("k3", Graph.complete(3)),
                    ("k4", Graph.complete(4)),
                    ("loop", Graph.looped_vertex()),
                    ("empty", Graph.empty(2))):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(g.to_json_obj()))
        paths[name] = str(p)
    return paths


def test_classify_command(graph_files, capsys):
    assert main(["classify", graph_files["k2"], "cycle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "VNPComplete"
    assert main(["classify", graph_files["k3"], "clique"]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "VAC0"
    assert main(["classify", graph_files["empty"], "tree"]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "ZeroPolynomial"
    assert main(["classify", graph_files["loop"], "planar"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "VNPComplete" and "caveat" in out


def test_poly_command_counts(graph_files, capsys):
    assert main(["poly", graph_files["k2"], "cycle", "--n", "4"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 3
    assert main(["poly", graph_files["loop"], "cycle", "--n", "4"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 7
    assert main(["poly", graph_files["k3"], "clique", "--n", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4


def test_poly_edge_vertex_model(graph_files, capsys):
    assert main(["poly", graph_files["k2"], "tree", "--n", "2",
                 "--model", "edge-vertex"]) == 0
    terms = json.loads(capsys.readouterr().out)
    assert terms == [{"coeff": "1",
                      "vars": [["e:0:1", 1], ["v:0", 1], ["v:1", 1]]}]


POLY_VARS = ([edge_var(i, j) for i in range(4) for j in range(i + 1, 4)]
             + [vertex_var(v) for v in range(4)] + [loop_var(v) for v in range(2)])
COEFFS = st.one_of(st.integers(-5, 5),
                   st.fractions(-3, 3, max_denominator=6).filter(bool))


@st.composite
def polynomials(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        pairs = draw(st.lists(st.tuples(st.sampled_from(POLY_VARS),
                                        st.integers(1, 3)), max_size=4))
        terms[monomial(pairs)] = draw(COEFFS)
    return Polynomial(terms)


@given(polynomials())
@example(Polynomial.zero())
@example(Polynomial.constant(-7))
@example(Polynomial.constant(Fraction(-3, 4)))
@example(Polynomial({((edge_var(0, 1), 3), (vertex_var(2), 2)): Fraction(5, 2),
                     ((loop_var(1), 1),): -1, (): 4}))
@settings(max_examples=150, deadline=None)
def test_poly_writer_matches_json_dumps(p):
    assert _dump_poly(p) == json.dumps(p.to_json_obj(), indent=2, sort_keys=True)


# the golden files were written by `hompoly poly` while it still printed
# through json.dumps
@pytest.mark.parametrize("golden,h,argv", [
    ("poly-c5-cycle-n4-edge.json", Graph.cycle(5), ["cycle", "--n", "4"]),
    ("poly-k2-tree-n3-edge-vertex.json", Graph.single_edge(),
     ["tree", "--n", "3", "--model", "edge-vertex"]),
])
def test_poly_golden_output(golden, h, argv, tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json_obj()))
    assert main(["poly", str(path)] + argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


POLY_DIGESTS = json.loads((GOLDEN / "poly-sha256.json").read_text())
DIGEST_TARGETS = {"K2": Graph.single_edge(), "K3": Graph.complete(3),
                  "C5": Graph.cycle(5)}


@pytest.mark.parametrize("command", sorted(POLY_DIGESTS))
def test_poly_output_digest(command, tmp_path, capsys):
    """The sha256 of `hompoly poly` stdout matches the committed digest.

    poly-sha256.json maps each command, with H named by a key of
    DIGEST_TARGETS, to the digest of its stdout.  The tree, cycle and
    clique commands take the shape templates, the outerplanar and planar
    ones the bitmask filter.
    """
    _, h, *rest = command.split()
    path = tmp_path / "h.json"
    path.write_text(json.dumps(DIGEST_TARGETS[h].to_json_obj()))
    assert main(["poly", str(path)] + rest) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == POLY_DIGESTS[command]


def test_bad_input_exits_2(graph_files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad), "cycle"]) == 2
    assert main(["classify", graph_files["k2"], "nonsense"]) == 2
    assert main(["poly", str(tmp_path / "missing.json"), "cycle", "--n", "4"]) == 2
    assert main(["verify", "--parallelism", "2"]) == 2
    capsys.readouterr()


def test_unknown_lemma_rejected(capsys):
    assert main(["verify", "--lemma", "no-such-lemma"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--lemma", "cycles-even", "--n", "0"],
    ["--lemma", "planar-permutation", "--m", "0"],
    ["--lemma", "genus-chain", "--k", "0"],
])
def test_verify_zero_size_is_not_the_default(argv, capsys):
    # an explicit 0 reaches the pipeline, which rejects it
    assert main(["verify"] + argv) == 2
    assert "supports" in capsys.readouterr().err


def test_poly_negative_n_exits_2(graph_files, capsys):
    assert main(["poly", graph_files["k2"], "cycle", "--n", "-1"]) == 2
    assert "negative" in capsys.readouterr().err


def test_poly_has_no_budget_flag(graph_files, capsys):
    assert main(["poly", graph_files["k3"], "planar", "--n", "5",
                 "--budget", "30"]) == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv,bad,good", [
    (["--lemma", "outerplanar-star", "--n", "SIZE", "--h-file", "loop"], "99", "6"),
    (["--lemma", "cycles-even", "--n", "SIZE", "--h-file", "empty"], "0", "4"),
    (["--lemma", "planar-permutation", "--m", "SIZE", "--h-file", "loop"], "99", "4"),
    (["--lemma", "genus-chain", "--k", "SIZE", "--h-file", "empty"], "9", "1"),
])
def test_verify_size_checked_before_the_classifier(argv, bad, good, graph_files,
                                                   tmp_path, capsys):
    # an H that makes the lemma trivial does not excuse an unsupported size
    argv = [graph_files.get(a, a) for a in argv]
    assert main(["verify"] + [bad if a == "SIZE" else a for a in argv]) == 2
    assert "supports" in capsys.readouterr().err
    out = tmp_path / "r.json"
    assert main(["verify"] + [good if a == "SIZE" else a for a in argv]
                + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert "skipped" in json.loads(out.read_text())["reports"][0]["details"]


@pytest.mark.parametrize("obj", [
    {"n": "3"},
    {"n": 2, "edges": [["a", 1]]},
    [1, 2],
    {"n": 2, "edges": [[0.5, 1]]},
    {"n": 2.5, "edges": [[0, 1]]},
    {"n": True},
    {"n": 2, "edges": [[0, 1, 1]]},
    {"n": 2, "edges": [[0, 1]], "loops": [True]},
    {"n": 3, "edges": [[0, 1]], "labels": {"x": 7}},
    {"n": 3, "labels": {"x": -1}},
    {"n": 3, "labels": {"x": "0"}},
])
def test_malformed_graph_file_exits_2(obj, tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(obj))
    assert main(["classify", str(path), "planar"]) == 2
    assert main(["verify", "--lemma", "cycles-even", "--h-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "Traceback" not in err


@pytest.mark.parametrize("obj", [[], {"reports": [1]}, {"reports": 5}])
def test_malformed_report_file_exits_2(obj, tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(obj))
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("missing", ["lemma", "equal", "produced_terms",
                                     "expected_terms"])
def test_report_row_missing_key_prints_nothing(missing, tmp_path, capsys):
    row = {"lemma": "cycles-even", "equal": True, "produced_terms": 3,
           "expected_terms": 3}
    bad = {k: v for k, v in row.items() if k != missing}
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"reports": [row, bad], "all_equal": True}))
    assert main(["report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: a report row has no {missing!r}\n"


def test_genus_command_ignores_isolated_vertices(tmp_path, capsys):
    k5 = Graph.complete(5)
    outs = []
    for name, g in (("k5", k5), ("k5-iso", Graph.make(6, k5.edges))):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(g.to_json_obj()))
        assert main(["genus", str(p)]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[1]["genus"] == 1 and outs[1] == outs[0]


def test_verify_with_isolated_vertices_in_h(tmp_path, capsys):
    # C5 plus 1,500 isolated vertices: the triangle check of the star
    # pipeline must not try the isolated vertices as images
    p = tmp_path / "h.json"
    h = Graph.make(1505, sorted(Graph.cycle(5).edges))
    p.write_text(json.dumps(h.to_json_obj()))
    assert main(["verify", "--lemma", "outerplanar-star", "--n", "5",
                 "--h-file", str(p)]) == 0


def test_genus_command(tmp_path, capsys):
    p = tmp_path / "k5.json"
    p.write_text(json.dumps(Graph.complete(5).to_json_obj()))
    assert main(["genus", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["genus"] == 1 and not out["planar"]
    # a zero budget is a budget, not a request for the default
    assert main(["genus", str(p), "--budget", "0"]) == 2
    assert "exceeds budget 0" in capsys.readouterr().err


@pytest.mark.parametrize("golden,argv", [
    ("verify-default.json", []),
    ("verify-outerplanar-n7-k3.json",
     ["--lemma", "outerplanar-star", "--n", "7", "--h-file", "k3"]),
    ("verify-outerplanar-buddy-n6-k2.json",
     ["--lemma", "outerplanar-star", "--n", "6", "--h-file", "k2"]),
    ("verify-planar-m6-k2.json",
     ["--lemma", "planar-permutation", "--m", "6", "--h-file", "k2"]),
    ("verify-cycles-n5.json", ["--lemma", "cycles-even", "--n", "5"]),
    ("verify-genus-chain-k2-m5-k2.json",
     ["--lemma", "genus-chain", "--k", "2", "--m", "5", "--h-file", "k2"]),
    ("verify-tree-matching-k33-k2.json",
     ["--lemma", "tree-matching", "--target", "k33", "--h-file", "k2"]),
    ("verify-loop.json", ["--h-file", "loop"]),
    ("verify-genus-chain-k4.json", ["--lemma", "genus-chain", "--h-file", "k4"]),
    ("verify-planar-m6-k3.json",
     ["--lemma", "planar-permutation", "--m", "6", "--h-file", "k3"]),
])
def test_verify_golden_reports(golden, argv, graph_files, tmp_path, capsys):
    """The --out file is byte-identical to the committed report.

    Regenerate one with
    `PYTHONPATH=src python -m hompoly.cli verify ARGS --out tests/golden/GOLDEN`,
    where k2, k3, k4 and loop in ARGS name files holding the JSON of
    Graph.single_edge(), Graph.complete(3), Graph.complete(4) and
    Graph.looped_vertex().
    """
    out = tmp_path / "r.json"
    argv = [graph_files.get(a, a) for a in argv]
    assert main(["verify"] + argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_verify_report_roundtrip_and_determinism(tmp_path, capsys):
    args = ["verify", "--lemma", "cycles-even", "--lemma", "planar-permutation",
            "--lemma", "genus-block", "--lemma", "genus-chain",
            "--n", "4", "--m", "4", "--k", "1"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["all_equal"] is True
    assert [r["lemma"] for r in data["reports"]] \
        == sorted(r["lemma"] for r in data["reports"])
    assert main(["report", str(out1)]) == 0
    capsys.readouterr()


def test_verify_repeated_lemma_runs_once(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify", "--lemma", "genus-block", "--lemma", "genus-block",
                 "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert [line.split()[0] for line in table.splitlines()[2:]] == ["genus-block"]
    assert [r["lemma"] for r in json.loads(out.read_text())["reports"]] \
        == ["genus-block"]


def test_verify_timings(tmp_path, capsys):
    args = ["verify", "--lemma", "cycles-even", "--lemma", "genus-block",
            "--lemma", "planar-permutation", "--lemma", "tree-matching",
            "--target", "c4"]
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    assert main(args + ["--out", str(plain)]) == 0
    assert main(args + ["--out", str(timed), "--timings"]) == 0
    capsys.readouterr()
    data = json.loads(timed.read_text())
    assert len(data["reports"]) == 4
    for r in data["reports"]:
        assert r.pop("wall_time_ms") > 0, r["lemma"]
    assert data == json.loads(plain.read_text())


def test_verify_exit_one_on_mismatch(tmp_path, capsys, monkeypatch):
    import hompoly.cli as cli
    from hompoly.poly import Polynomial
    from hompoly.reductions import ReductionReport

    def fake(lemma, args):
        return ReductionReport(lemma, {}, Polynomial.zero(),
                               Polynomial.constant(1), False)

    monkeypatch.setattr(cli, "_run_lemma", fake)
    assert main(["verify", "--lemma", "cycles-even"]) == 1
    capsys.readouterr()


def test_block_certificate_searched_once_per_process(tmp_path, capsys,
                                                     block_searches):
    out = tmp_path / "r.json"
    assert main(["verify", "--lemma", "genus-block", "--lemma", "genus-chain",
                 "--k", "2", "--m", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(block_searches) == 1
    assert json.loads(out.read_text())["all_equal"] is True
