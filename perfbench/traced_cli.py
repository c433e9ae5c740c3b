"""Run the ``mixsep`` command line under the tracer.

Usage: ``python traced_cli.py TRACE_DIR run --config CONFIG [--jobs N]``.
Spans of this process go to ``TRACE_DIR/spans-root.json`` when the command
ends; pool workers forked by it write their own files there. The time from
this file's first line to the command (interpreter, imports) is the
``cli.startup`` span.
"""

from time import perf_counter

_START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from mixsep import cli  # noqa: E402


def main() -> int:
    trace_dir = Path(sys.argv[1])
    tracer = tracing.Tracer(trace_dir)
    tracer.close(tracer.open(tracing.STARTUP_SPAN, start=_START))
    uninstall = tracing.install(tracer)
    try:
        return cli.main(sys.argv[2:])
    finally:
        uninstall()
        tracer.flush("spans-root.json")


if __name__ == "__main__":
    sys.exit(main())
