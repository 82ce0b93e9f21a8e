"""Byte-identity sweep over the hompoly command line.

Runs a fixed list of verify, poly, genus, classify and report commands
through hompoly.cli.main in one process and prints one line per command: the
sha256 of its exit code, stdout, stderr and --out file, then the command.  Two
checkouts behave the same on the list when their printouts are identical:

    PYTHONPATH=src python tests/cli_sweep.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/cli_sweep.py > before.txt
    diff before.txt after.txt

tests/golden/cli-sweep.txt is the committed printout; CI diffs a fresh one
against it, so a change to any output of the list fails there.

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
import itertools
import json
import os
import sys
import tempfile

from hompoly import Graph, cli, reductions
from hompoly.gadgets import genus_block
from hompoly.graphs import GRAPH_FILE_MAX_VERTICES

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

# graphs whose genus search the budget refuses from the count alone
OVER_BUDGET_GRAPHS = {"K12": Graph.complete(12)}

# a graph file that the vertex limit refuses as it is read
OVER_LIMIT_GRAPHS = {"K3-over-limit": Graph.make(GRAPH_FILE_MAX_VERTICES + 1,
                                                 Graph.complete(3).edges)}


def size_argvs(lemma: str) -> tuple[list, list, list]:
    """The size arguments of a lemma, read from reductions.LEMMA_SIZES: every
    supported combination, then one step below and one step above each
    size's range with the other sizes at their verify defaults.  The
    tree-matching lemma takes each target instead, and an unknown one."""
    if lemma == "tree-matching":
        return [("--target", t) for t in sorted(cli.TARGETS)], [], [("--target", "k5")]
    sizes = reductions.LEMMA_SIZES[lemma]

    def argv(values) -> tuple:
        return tuple(a for key, v in zip(sizes, values) for a in (f"--{key}", str(v)))

    def at(key, value) -> tuple:
        return argv(value if k == key else default for k, (default, _) in sizes.items())

    ranges = (range(lo, hi + 1) for _, (lo, hi) in sizes.values())
    return ([argv(values) for values in itertools.product(*ranges)],
            [at(key, lo - 1) for key, (_, (lo, _)) in sizes.items()],
            [at(key, hi + 1) for key, (_, (_, hi)) in sizes.items()])


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
    def on_k3(lemma: str, *args: str) -> tuple:
        return ("verify", "--lemma", lemma, *args, "--h-file", "K3.json", "--out", "out.json")

    out, appended = [], []
    for lemma in cli.LEMMAS:
        supported, below, above = size_argvs(lemma)
        for h in TARGETS_H:
            for size in supported:
                out.append(("verify", "--lemma", lemma, *size, "--h-file", f"{h}.json",
                            "--out", "out.json"))
        # sizes out of range (exit 2); a lemma with two sizes runs its
        # below-range commands with the appended ones
        early = below + above if len(below) == 1 else above
        out += [on_k3(lemma, *size) for size in early]
        appended += [on_k3(lemma, *size) for size in below if size not in early]
        # a flag that the lemma does not read (exit 2)
        read = {f"--{key}" for key in reductions.LEMMA_SIZES[lemma]}
        read |= {"--target"} if lemma == "tree-matching" else set()
        appended += [on_k3(lemma, flag, value) for flag, value in
                     (("--n", "5"), ("--k", "2"), ("--m", "5"), ("--target", "k33"))
                     if flag not in read]
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
    # commands are only appended after this line, so that two printouts of
    # different ages still compare line by line
    out += appended
    out += [("verify", "--lemma", "genus-block", "--timings", "--h-file", "K3.json"),
            ("verify", "--lemma", "genus-block", "--lemma", "genus-chain", "--k", "2",
             "--m", "5", "--h-file", "K3.json", "--out", "out.json"),
            ("verify", "--n", "5", "--out", "out.json")]
    # limits decided from the input's size, before anything is built
    out += [("genus", f"{g}.json") for g in OVER_BUDGET_GRAPHS]
    out += [("poly", "K3.json", cls, "--n", "2000") for cls in ("tree", "planar")]
    # the edge-and-vertex model's term order, where edge counts and vertex
    # counts together make a term's degree
    out += [("poly", f"{h}.json", cls, "--n", "6", "--model", "edge-vertex")
            for h in ("K3", "C5") for cls in ("tree", "cycle", "clique")]
    # unknown ids of the other choice options (exit 2)
    out += [("verify", "--lemma", "nope"),
            ("poly", "K3.json", "tree", "--n", "3", "--model", "nope")]
    for g in OVER_LIMIT_GRAPHS:
        out += [("classify", f"{g}.json", "cycle"),
                ("poly", f"{g}.json", "tree", "--n", "4"),
                ("verify", "--lemma", "cycles-even", "--h-file", f"{g}.json",
                 "--out", "out.json"),
                ("genus", f"{g}.json")]
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
        files = {name: g.to_json_obj() for name, g in
                 {**TARGETS_H, **GENUS_GRAPHS, **OVER_BUDGET_GRAPHS,
                  **OVER_LIMIT_GRAPHS}.items()}
        for name, obj in {**files, **REPORTS}.items():
            with open(f"{name}.json", "w") as fh:
                json.dump(obj, fh)
        for argv in commands():
            print(run(argv), " ".join(argv), flush=True)
        os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
