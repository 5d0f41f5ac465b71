"""Traced bootstrap: run one ``repro`` command with the benchmark's spans.

Usage::

    python3 perfbench/traced_main.py SPANS_JSON TRACE_ID REPRO_ARGS...

Times ``import repro.cli`` (seconds and modules loaded), wraps the program's
public functions (``tracer.install``, plus the serve layer for ``serve``),
runs ``repro.cli.main(REPRO_ARGS)`` and writes every span to ``SPANS_JSON``
when the command returns.  ``TRACE_ID`` names the operation the spans
belong to; a server replaces it per job with the job id.
"""

import sys
import time

t0 = time.perf_counter()
n0 = len(sys.modules)
import repro.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - t0
import_modules = len(sys.modules) - n0

import tracer as tracing  # noqa: E402


def main() -> int:
    out, trace_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.meta.update(import_s=import_s, import_modules=import_modules,
                       trace=trace_id, argv=argv)
    tracing.install(tracer)
    if argv and argv[0] == "serve":
        tracing.install_serve(tracer)
    tracer.set_trace(trace_id)
    rc = 1
    try:
        rc = repro.cli.main(argv)
    finally:
        tracer.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
