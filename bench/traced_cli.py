"""Run one hblab CLI verb with the layer tracer installed.

Usage: python3 bench/traced_cli.py SPANS.json VERB [ARGS...]

Times the cold ``import hblab.cli`` as the span ``cli.import``, installs the
tracer, runs the verb exactly as ``python3 -m hblab.cli VERB ARGS`` would,
and writes the spans and counters to SPANS.json when the verb exits.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402  (standard library only at import time)


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import hblab.cli

    tracer = tracing.Tracer()
    tracer.record("cli.import", start, time.perf_counter())
    tracing.install(tracer)
    try:
        hblab.cli.main(argv, prog_name="hblab")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
