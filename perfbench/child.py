"""One benchmark job in a fresh interpreter, started by run.py.

    python3 child.py JOB SRC [cli arguments...]

imports bellmanlab from SRC (the checkout's ``src/``), does JOB and prints one
JSON object as its last line of output:

- ``import``: the time ``import bellmanlab`` took;
- ``run``: the import time, then one ``cli.main(arguments)`` call with its
  wall time, exit code and captured report;
- ``count``: as ``run``, with the normal-draw and FFT counters installed;
- ``trace``: as ``count``, with spans on every layer as well;
- ``probe``: the kernel timings of probes.py.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from pathlib import Path

LAYERS = ("dyadic", "bellman", "planar", "laminate", "stochastic", "qcmaps",
          "reporting", "suite", "cli")


def main() -> None:
    job, src, argv = sys.argv[1], Path(sys.argv[2]).resolve(), sys.argv[3:]
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import bellmanlab
    import_s = time.perf_counter() - start
    if Path(bellmanlab.__file__).resolve().parent != src / "bellmanlab":
        sys.exit(f"bellmanlab was imported from {bellmanlab.__file__}, not {src}")
    if job == "import":
        print(json.dumps({"import_s": import_s}))
        return
    if job == "probe":
        import probes
        print(json.dumps(probes.run()))
        return

    import tracing
    from bellmanlab import cli

    counters = tracer = None
    if job in ("count", "trace"):
        counters = tracing.Counters()
        counters.install()
    if job == "trace":
        tracer = tracing.Tracer()
        tracer.install({name: importlib.import_module(f"bellmanlab.{name}")
                        for name in LAYERS})
    elif job not in ("run", "count"):
        sys.exit(f"unknown job {job!r}")

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        code = cli.main(argv)
        wall_s = time.perf_counter() - start
    result = {"import_s": import_s, "exit": code, "wall_s": wall_s,
              "report": captured.getvalue()}
    if counters is not None:
        result["counts"] = counters.as_dict()
    if tracer is not None:
        result["spans"] = tracer.records
    print(json.dumps(result))


if __name__ == "__main__":
    main()
