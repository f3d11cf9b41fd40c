"""Run ``repro serve`` from this checkout, optionally traced.

    python3 perfbench/launch.py [--spans FILE] serve --dataset ... --port 0

Without ``--spans`` this is exactly ``repro serve``.  With it, the
functions in :data:`perfbench.tracing.TRACED` are wrapped before the
server starts, and their spans are written to FILE when the server stops
(SIGINT).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    tracer = None
    if spans_path is not None:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
