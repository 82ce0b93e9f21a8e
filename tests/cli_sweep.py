"""Byte-identity sweep over the hompoly command line.

Runs a fixed list of verify, poly, genus, classify and report commands
through hompoly.cli.main in one process and prints one line per command: the
sha256 of its exit code, stdout, stderr and --out file, then the command.  Two
checkouts behave the same on the list when their printouts are identical:

    PYTHONPATH=src python tests/cli_sweep.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/cli_sweep.py > before.txt
    diff before.txt after.txt

The commands run in a temporary directory and name their files relatively,
so no path reaches an output.  An exception that escapes cli.main ends the
sweep with a traceback and a nonzero exit, so a plain run is also a crash
check.  pytest does not collect this file; a test in test_cli.py checks that
the list covers every subcommand, lemma and class kind.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from hompoly import Graph, cli
from hompoly.gadgets import genus_block

TARGETS_H = {
    "K2": Graph.complete(2),
    "K3": Graph.complete(3),
    "K4": Graph.complete(4),
    "C5": Graph.cycle(5),
    "loop": Graph.looped_vertex(),
    "loopK2": Graph.make(2, [(0, 1)], loops=[0, 1]),
    "edgeless": Graph.empty(3),
}

GENUS_GRAPHS = {
    "K4": Graph.complete(4),
    "K5": Graph.complete(5),
    "K6": Graph.complete(6),
    "K33": Graph.complete_bipartite(3, 3),
    "K33-isolated": Graph.make(8, Graph.complete_bipartite(3, 3).edges),
    "petersen": Graph.make(10, [(i, (i + 1) % 5) for i in range(5)]
                           + [(i, i + 5) for i in range(5)]
                           + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
    "block": genus_block().graph,
    "C5": Graph.cycle(5),
    "edgeless": Graph.empty(3),
}

# each lemma's supported sizes, then sizes just outside them (exit 2)
LEMMA_SIZES = {
    "cycles-even": ([("--n", str(n)) for n in range(3, 7)],
                    [("--n", "2"), ("--n", "7")]),
    "tree-matching": ([("--target", t) for t in sorted(cli.TARGETS)],
                      [("--target", "k5")]),
    "outerplanar-star": ([("--n", str(n)) for n in range(5, 8)],
                         [("--n", "4"), ("--n", "8")]),
    "planar-permutation": ([("--m", str(m)) for m in range(3, 7)],
                           [("--m", "2"), ("--m", "7")]),
    "genus-block": ([()], []),
    "genus-chain": ([("--k", str(k), "--m", str(m)) for k in (1, 2) for m in (4, 5)],
                    [("--k", "3", "--m", "4"), ("--k", "1", "--m", "6")]),
}

# report files besides the one verify writes: a failed run, then one
# malformed field each (exit 2)
ROW = {"lemma": "cycles-even", "equal": True, "produced_terms": 3,
       "expected_terms": 3}
REPORTS = {
    "report-failed": {"reports": [dict(ROW, equal=False)], "all_equal": False},
    "report-lemma-null": {"reports": [dict(ROW, lemma=None)], "all_equal": True},
    "report-terms-list": {"reports": [dict(ROW, produced_terms=[1])],
                          "all_equal": True},
    "report-all-equal-str": {"reports": [ROW], "all_equal": "no"},
    "report-equal-str": {"reports": [dict(ROW, equal="yes")], "all_equal": True},
}

CLASSES = [("cycle",), ("clique",), ("tree",), ("outerplanar",), ("planar",),
           ("genus", "--k", "0"), ("genus", "--k", "1")]


def commands() -> list[tuple]:
    """The argv of every command; "H.json" names a file written from
    TARGETS_H or GENUS_GRAPHS, "out.json" the --out file."""
    out = []
    for lemma, (supported, unsupported) in LEMMA_SIZES.items():
        for h in TARGETS_H:
            for size in supported:
                out.append(("verify", "--lemma", lemma, *size, "--h-file", f"{h}.json",
                            "--out", "out.json"))
        for size in unsupported:
            out.append(("verify", "--lemma", lemma, *size, "--h-file", "K3.json",
                        "--out", "out.json"))
    out.append(("verify", "--out", "out.json"))
    for h in TARGETS_H:
        for cls in CLASSES:
            out.append(("classify", f"{h}.json", *cls))
            out += [("poly", f"{h}.json", *cls, "--n", n) for n in ("3", "5")]
            out.append(("poly", f"{h}.json", *cls, "--n", "4", "--model", "edge-vertex"))
    out += [("poly", "K3.json", "tree", "--n", "7"),
            ("poly", "C5.json", "cycle", "--n", "7"),
            ("poly", "K3.json", "genus", "--n", "4"),
            ("poly", "K3.json", "cycle", "--n", "-1"),
            ("classify", "K3.json", "genus", "--k", "-1")]
    out += [("genus", f"{g}.json") for g in GENUS_GRAPHS]
    out.append(("genus", "K5.json", "--budget", "10"))
    out += [("classify", "K3.json", "cycle", "--k", "5"),
            ("poly", "K3.json", "tree", "--n", "4", "--k", "2")]
    out += [("verify", "--lemma", "cycles-even", "--lemma", "genus-block",
             "--h-file", "K3.json", "--out", "report.json"),
            ("report", "report.json")]
    out += [("report", f"{name}.json") for name in REPORTS]
    return out


def run(argv: tuple) -> str:
    """sha256 over the exit code, stdout, stderr and --out bytes of one command."""
    with contextlib.suppress(FileNotFoundError):
        os.remove("out.json")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(list(argv))
    digest = hashlib.sha256(f"{rc}\n".encode())
    for text in (stdout.getvalue(), stderr.getvalue()):
        digest.update(text.encode() + b"\0")
    with contextlib.suppress(FileNotFoundError), open("out.json", "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        files = {name: g.to_json_obj()
                 for name, g in {**TARGETS_H, **GENUS_GRAPHS}.items()}
        for name, obj in {**files, **REPORTS}.items():
            with open(f"{name}.json", "w") as fh:
                json.dump(obj, fh)
        for argv in commands():
            print(run(argv), " ".join(argv), flush=True)
        os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
