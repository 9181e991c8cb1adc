"""Run one ``subdesign`` CLI command with spans recorded.

Usage: python3 perfbench/launch.py SPANS.json COMMAND [OPTIONS...]

Installs the tracer, calls ``subdesign.cli.main`` with the remaining
arguments, writes the spans to SPANS.json at exit and exits with the
command's own code. ``subdesign`` must be importable (the benchmark puts the
checkout's ``src`` on PYTHONPATH).
"""

import sys

import subdesign.cli

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return subdesign.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
