"""Command-line interface: formats, exit codes, report determinism."""

import argparse
import hashlib
import json
import os
import pathlib
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hompoly import CYCLE, OUTERPLANAR, TREE, Graph, VariableModel, hom_poly
from hompoly import circuit, cli, reductions, topo
from hompoly.cli import LEMMAS, _dump_poly, build_parser, main
from hompoly.errors import PipelineIntegrityError
from hompoly.gadgets import genus_block
from hompoly.reductions import LEMMA_SIZES
from hompoly.graphs import GRAPH_FILE_MAX_VERTICES, SHAPE_KINDS
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


def test_poly_command_streams_the_writer_text(graph_files, capsys):
    # an H with no edge leaves no term; otherwise the streamed pieces are
    # _dump_poly's text, and one newline ends both
    assert main(["poly", graph_files["empty"], "cycle", "--n", "4"]) == 0
    assert capsys.readouterr().out == "[]\n"
    assert main(["poly", graph_files["k3"], "tree", "--n", "4",
                 "--model", "edge-vertex"]) == 0
    p = hom_poly(Graph.complete(3), 4, TREE, VariableModel.EDGE_AND_VERTEX)
    assert capsys.readouterr().out == _dump_poly(p) + "\n"


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


@pytest.mark.parametrize("model", list(VariableModel), ids=lambda m: m.value)
@pytest.mark.parametrize("h,cls,n", [(Graph.complete(3), TREE, 5),
                                     (Graph.cycle(5), CYCLE, 6),
                                     (Graph.single_edge(), OUTERPLANAR, 4)])
def test_poly_writer_matches_json_dumps_on_assembled_polynomials(h, cls, n, model):
    # hom_poly's terms come in the writer's order without a sort
    p = hom_poly(h, n, cls, model)
    assert len(p) > 1
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


def test_unknown_target_message_is_the_clis_own(capsys):
    # the same bytes on every Python, whatever argparse's choice formatting
    assert main(["verify", "--lemma", "tree-matching", "--target", "k5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "[--target {c4,c6,c8,k33,k4,k6}]" in err
    assert err.endswith(
        "hompoly verify: error: argument --target: invalid choice: 'k5' "
        "(choose from 'c4', 'c6', 'c8', 'k33', 'k4', 'k6')\n")


@pytest.mark.parametrize("argv, usage, error", [
    (["verify", "--lemma", "nope"],
     "[--lemma {cycles-even,tree-matching,outerplanar-star,planar-permutation,"
     "genus-block,genus-chain}]",
     "hompoly verify: error: argument --lemma: invalid choice: 'nope' (choose "
     "from 'cycles-even', 'tree-matching', 'outerplanar-star', "
     "'planar-permutation', 'genus-block', 'genus-chain')\n"),
    (["poly", "K3.json", "tree", "--n", "3", "--model", "nope"],
     "[--model {edge,edge-vertex}]",
     "hompoly poly: error: argument --model: invalid choice: 'nope' (choose "
     "from 'edge', 'edge-vertex')\n"),
])
def test_unknown_lemma_and_model_messages_are_the_clis_own(argv, usage, error,
                                                           capsys):
    # the choices keep argparse's order, quoting and usage metavar
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert usage in err
    assert err.endswith(error)


def test_pipeline_integrity_failure_exits_1(monkeypatch, capsys):
    def broken(lemma, args):
        raise PipelineIntegrityError(f"{lemma}: circuit and direct slices differ")

    monkeypatch.setattr(cli, "_run_lemma", broken)
    assert main(["verify", "--lemma", "genus-block"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("pipeline integrity failure: genus-block: circuit and direct "
                   "slices differ\n")


def test_circuit_disagreement_fails_rows_not_the_run(monkeypatch, tmp_path, capsys):
    # every lemma that builds a circuit reports the disagreement as a failed
    # row; the report file is still written with all six lemmas
    real = circuit.eval_symbolic
    monkeypatch.setattr(circuit, "eval_symbolic",
                        lambda c, oracle=None: real(c, oracle) + Polynomial.constant(1))
    out = tmp_path / "r.json"
    assert main(["verify", "--out", str(out)]) == 1
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["all_equal"] is False and len(data["reports"]) == 6
    failed = {r["lemma"] for r in data["reports"] if not r["equal"]}
    assert failed == {"cycles-even", "tree-matching", "outerplanar-star",
                      "genus-chain"}
    for r in data["reports"]:
        if r["lemma"] in failed:
            assert "circuit route" in r["details"]["calibration_failure"]


def test_verify_prints_and_writes_a_caveat(monkeypatch, tmp_path, capsys):
    # a block certificate that calls the block planar fails the chain's
    # structural check, which the report carries as a caveat
    record = reductions._block_certificate()
    monkeypatch.setattr(reductions, "_block_certificate", lambda: (True,) + record[1:])
    out = tmp_path / "r.json"
    assert main(["verify", "--lemma", "genus-chain", "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "caveat [genus-chain]: embedding or certificate search failed\n" in printed
    (row,) = json.loads(out.read_text())["reports"]
    assert row["caveat"] == "embedding or certificate search failed"
    assert row["equal"] is False


@pytest.mark.parametrize("argv", [
    ["--lemma", "cycles-even", "--n", "0"],
    ["--lemma", "planar-permutation", "--m", "0"],
    ["--lemma", "genus-chain", "--k", "0"],
])
def test_verify_zero_size_is_not_the_default(argv, capsys):
    # an explicit 0 reaches the pipeline, which rejects it
    assert main(["verify"] + argv) == 2
    assert "supports" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["--lemma", "cycles-even", "--k", "5", "--m", "9"], "--k"),
    (["--lemma", "tree-matching", "--n", "99"], "--n"),
    (["--lemma", "cycles-even", "--target", "k33"], "--target"),
    (["--lemma", "genus-block", "--timings"], "--timings"),
    # a flag counts as read when any selected lemma reads it
    (["--lemma", "genus-block", "--lemma", "genus-chain", "--k", "2", "--m", "5"],
     None),
    (["--n", "5"], None),
])
def test_verify_flag_no_selected_lemma_reads_exits_2(argv, flag, capsys):
    assert main(["verify"] + argv) == (2 if flag else 0)
    err = capsys.readouterr().err
    assert (err.startswith("error: ") and flag in err) if flag else err == ""


@pytest.mark.parametrize("argv", [
    ["classify", "k3", "cycle", "--k", "5"],
    ["poly", "k3", "tree", "--n", "4", "--k", "2"],
    ["poly", "k3", "planar", "--n", "4", "--k", "0"],
])
def test_k_on_a_non_genus_class_exits_2(argv, graph_files, capsys):
    assert main([argv[0], graph_files[argv[1]], *argv[2:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "genus" in err


def test_poly_negative_n_exits_2(graph_files, capsys):
    assert main(["poly", graph_files["k2"], "cycle", "--n", "-1"]) == 2
    assert "negative" in capsys.readouterr().err


def test_poly_has_no_budget_flag(graph_files, capsys):
    assert main(["poly", graph_files["k3"], "planar", "--n", "5",
                 "--budget", "30"]) == 2
    assert "--budget" in capsys.readouterr().err


def test_poly_shape_enumeration_budget(graph_files, monkeypatch, capsys):
    from hompoly import graphs
    argv = ["poly", graph_files["k3"], "tree", "--n", "5"]
    # K5 has 10 + 30 + 80 + 125 = 245 trees with an edge; the limit is read
    # at call time, before any template is placed
    monkeypatch.setattr(graphs, "SHAPE_MAX_MASKS", 244)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "245 tree subsets of K5" in out.err
    monkeypatch.setattr(graphs, "SHAPE_MAX_MASKS", 245)
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)) == 245


@pytest.mark.parametrize("graph_class,message", [
    ("tree", "over 1000000000000000000 tree subsets of K100000 exceed the shape "
             "enumeration budget 1000000"),
    ("planar", "4999950000 candidate edges exceed the enumeration budget 21"),
], ids=["tree", "planar"])
def test_poly_limits_are_decided_from_n(graph_files, monkeypatch, capsys,
                                        graph_class, message):
    # K100000 has 5e9 edges: the limit must refuse it before any is built,
    # and the message must not state a count too long to print
    from hompoly import genfun
    real = genfun.all_edges

    def small_only(n):
        assert n <= 100, f"all_edges({n}) built before the limits were checked"
        return real(n)

    monkeypatch.setattr(genfun, "all_edges", small_only)
    assert main(["poly", graph_files["k3"], graph_class, "--n", "100000"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def _triangle_file(tmp_path, n: int) -> str:
    path = tmp_path / f"triangle-{n}.json"
    path.write_text(json.dumps({"n": n, "edges": [[0, 1], [1, 2], [0, 2]]}))
    return str(path)


def test_graph_file_at_the_vertex_limit_loads(tmp_path, capsys):
    k5 = tmp_path / "k5.json"
    k5.write_text(json.dumps(dict(Graph.complete(5).to_json_obj(),
                                  n=GRAPH_FILE_MAX_VERTICES)))
    assert main(["genus", str(k5)]) == 0
    assert json.loads(capsys.readouterr().out)["genus"] == 1
    assert main(["classify", _triangle_file(tmp_path, GRAPH_FILE_MAX_VERTICES),
                 "cycle"]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "VNPComplete"


@pytest.mark.parametrize("argv", [
    ["classify", "H", "cycle"],
    ["poly", "H", "tree", "--n", "4"],
    ["verify", "--lemma", "cycles-even", "--h-file", "H"],
    ["genus", "H"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("n", [GRAPH_FILE_MAX_VERTICES + 1, 4_000_000_000])
def test_graph_file_past_the_vertex_limit_exits_2(tmp_path, capsys, argv, n):
    # refused as the file is read, before a mask or a vertex list is built
    path = _triangle_file(tmp_path, n)
    assert main([path if a == "H" else a for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        f"error: {n} vertices exceed the graph file limit {GRAPH_FILE_MAX_VERTICES}\n")


def test_cli_sweep_covers_every_lemma_and_class_kind():
    import cli_sweep
    argvs = cli_sweep.commands()
    assert len(argvs) >= 200
    # argparse keeps its subcommands on the one _SubParsersAction
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert {a[0] for a in argvs} == set(sub.choices)
    verify = [a for a in argvs if a[0] == "verify" and "--lemma" in a]
    # every lemma id, and one unknown id for the invalid-choice message
    assert {a[a.index("--lemma") + 1] for a in verify} == set(LEMMAS) | {"nope"}
    # every target H, besides the files that the vertex limit refuses
    refused = {f"{g}.json" for g in cli_sweep.OVER_LIMIT_GRAPHS}
    for lemma in LEMMAS:
        assert {a[a.index("--h-file") + 1] for a in verify if lemma in a} - refused == \
            {f"{h}.json" for h in cli_sweep.TARGETS_H}
    kinds = {a[2] for a in argvs if a[0] in ("poly", "classify")}
    assert kinds == set(SHAPE_KINDS) | {"outerplanar", "planar", "genus"}


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


REPORT_ROW = {"lemma": "cycles-even", "equal": True, "produced_terms": 3,
              "expected_terms": 3}


@pytest.mark.parametrize("obj", [
    [], {"reports": [1]}, {"reports": 5},
    {"reports": [dict(REPORT_ROW, lemma=None)], "all_equal": True},
    {"reports": [dict(REPORT_ROW, equal="yes")], "all_equal": True},
    {"reports": [dict(REPORT_ROW, produced_terms=[1])], "all_equal": True},
    {"reports": [dict(REPORT_ROW, expected_terms=True)], "all_equal": True},
    {"reports": [dict(REPORT_ROW, produced_terms=2.5)], "all_equal": True},
    {"reports": [REPORT_ROW], "all_equal": "no"},
    {"reports": [REPORT_ROW], "all_equal": 1},
    {"reports": [REPORT_ROW], "all_equal": False},
    {"reports": [dict(REPORT_ROW, equal=False)], "all_equal": True},
    {"reports": [REPORT_ROW]},
])
def test_malformed_report_file_exits_2(obj, tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(obj))
    assert main(["report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_report_of_a_failed_verify_exits_1(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"reports": [dict(REPORT_ROW, equal=False)],
                                "all_equal": False}))
    assert main(["report", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[2].split() == \
        ["cycles-even", "False", "3", "3"]


@pytest.mark.parametrize("missing", ["lemma", "equal", "produced_terms",
                                     "expected_terms"])
def test_report_row_missing_key_prints_nothing(missing, tmp_path, capsys):
    bad = {k: v for k, v in REPORT_ROW.items() if k != missing}
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"reports": [REPORT_ROW, bad], "all_equal": True}))
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


def test_genus_block_makes_one_kuratowski_search(capsys, block_searches,
                                                 monkeypatch):
    # the witness that fills the report's minor also bounds the genus below
    calls = []
    real = topo.kuratowski_witness

    def counting(g):
        calls.append(1)
        return real(g)

    monkeypatch.setattr(topo, "kuratowski_witness", counting)
    assert main(["verify", "--lemma", "genus-block"]) == 0
    capsys.readouterr()
    assert len(block_searches) == 1
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [["genus", "block.json"],
                                  ["verify", "--lemma", "genus-block"]])
def test_genus_paths_test_the_block_for_planarity_once(argv, tmp_path, capsys,
                                                      monkeypatch, block_searches):
    # the block itself once, each of the Kuratowski search's 14 one-edge
    # deletions once, and the one-edge certificate's first two G - e
    block = genus_block().graph
    (tmp_path / "block.json").write_text(json.dumps(block.to_json_obj()))
    monkeypatch.chdir(tmp_path)
    tested = []
    real = topo.planar_rotation

    def recording(g):
        tested.append(g.edges)
        return real(g)

    monkeypatch.setattr(topo, "planar_rotation", recording)
    assert main(argv) == 0
    capsys.readouterr()
    assert tested.count(block.edges) == 1
    assert len(tested) == 1 + 14 + 2


NO_NETWORKX = """
import json, sys
sys.modules["networkx"] = None  # any import of networkx now fails
from hompoly import Graph, cli
from hompoly.gadgets import genus_block
for name, g in (("block", genus_block().graph), ("k3", Graph.complete(3))):
    with open(name + ".json", "w") as f:
        json.dump(g.to_json_obj(), f)
for argv in (["genus", "block.json"],
             ["verify", "--lemma", "genus-block", "--lemma", "genus-chain",
              "--k", "2", "--m", "5"],
             ["poly", "k3.json", "planar", "--n", "5"]):
    code = cli.main(argv)
    if code:
        sys.exit(f"{argv} exited {code}")
"""


def test_commands_run_without_networkx(tmp_path):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", NO_NETWORKX], cwd=tmp_path,
                       env={**os.environ, "PYTHONPATH": path},
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """Every line in the README's code blocks runs in a fresh directory: an
    `echo '...' > file` line writes the file, and a `python -m hompoly.cli`
    line goes through main and exits 0.  The verify table names each lemma's
    size flags with their defaults and supported ranges."""
    text = README.read_text()
    lines, fenced = [], False
    for line in text.splitlines():
        if line.strip() == "```":
            fenced = not fenced
        elif fenced and line.strip():
            lines.append(shlex.split(line))
    monkeypatch.chdir(tmp_path)
    for words in lines:
        if words[0] == "echo":
            assert words[2] == ">" and len(words) == 4, words
            pathlib.Path(words[3]).write_text(words[1] + "\n")
        else:
            assert words[:4] == ["PYTHONPATH=src", "python", "-m", "hompoly.cli"], words
            assert main(words[4:]) == 0, words
    capsys.readouterr()
    assert sum(words[0] != "echo" for words in lines) >= 6
    rows = {line.split("|")[1].strip(" `"): line for line in text.splitlines()
            if line.strip().startswith("| `")}
    assert set(LEMMAS) <= set(rows)
    for lemma, sizes in LEMMA_SIZES.items():
        for key, (default, (lo, hi)) in sizes.items():
            cells = [c.strip() for c in rows[lemma].split("|")]
            assert f"`--{key}`" in cells[2] and str(default) in cells[3], lemma
            assert f"{lo}–{hi}" in cells[4], lemma
