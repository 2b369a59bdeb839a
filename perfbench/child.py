"""Run one arboreal CLI operation in this fresh interpreter and report it.

    python3 perfbench/child.py --src SRC_DIR --trace 0|1 -- certify --preset ...

Imports `arboreal.cli` from SRC_DIR, installs the tracer when asked, times
`arboreal.cli.main(argv)` in-process and prints one JSON line: the exit
status, the seconds `main` took, this process's peak RSS, how many tracing
wrappers were installed, and with tracing on the tracer's records.  The
CLI's own output is captured, not printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, args.src)
    import arboreal.cli

    from tracer import Tracer, installed_wrappers

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        status = arboreal.cli.main(argv)
        seconds = time.perf_counter() - t0
    report = {
        "exit": status,
        "seconds": seconds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "wrappers": installed_wrappers(),
        "stdout": out.getvalue()[-2000:],
        "stderr": err.getvalue()[-2000:],
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
