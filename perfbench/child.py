"""Run one hompoly CLI command in this fresh interpreter and record it.

Usage: python3 perfbench/child.py RECORD_JSON TRACE(0|1) CLI_ARG...

Imports hompoly from the ``src`` directory next to this one, optionally
installs the tracer, then calls ``hompoly.cli.main(argv)`` once. The record
holds ``perf_counter`` stamps at ``cli.main`` entry and return (the clock is
CLOCK_MONOTONIC, shared with the parent process), the return code or the
raised exception, peak RSS, the speed probe's samples, and with TRACE=1 the
per-function trace.
"""

import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE_INTERVAL_S = 0.02


def probe_work() -> int:
    """A fixed, small pure-Python graph computation: random adjacency sets, BFS."""
    n, x = 64, 12345
    adj = {v: set() for v in range(n)}
    for _ in range(160):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = (x >> 16) % n
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = (x >> 16) % n
        adj[u].add(v)
        adj[v].add(u)
    total = 0
    for s in range(0, n, 8):
        seen, frontier = {s}, [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        total += len(seen)
    return total


class SpeedProbe:
    """Times `probe_work` on a wall-clock timer while the process runs.

    Each tick runs the probe twice and times the second run, whose caches
    the first has warmed: the cold run's time depends on what the
    interrupted code left in the caches, the warm run's only on how fast
    the host runs Python at that moment. A sample is (start, tick_s, probe_s)
    from ``perf_counter``: tick_s is the whole tick, to be subtracted from
    the process's times, and probe_s the warm run.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe_work()
        warm = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.samples.append((start, end - start, end - warm))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    from hompoly import cli
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "hompoly":
        raise ImportError(f"hompoly imported from {cli.__file__}, not from the checkout")
    tracer = None
    if trace:
        sys.path.insert(1, str(ROOT / "perfbench"))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    rc, error = None, None
    entry = time.perf_counter()
    try:
        rc = cli.main(argv)
        sys.stdout.flush()
    except Exception:  # a raised exception is a failed command, not a crash
        error = traceback.format_exc()
    exit_ = time.perf_counter()
    probe.stop()
    record = {"rc": rc, "error": error, "entry": entry, "exit": exit_,
              "probes": probe.samples,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "trace": tracer.snapshot() if tracer else None}
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
