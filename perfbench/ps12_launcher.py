"""Traced stand-in for the ``ps12`` command.

    python3 perfbench/ps12_launcher.py SPANS.json <ps12 arguments...>

Imports the CLI under a span named ``cli.import``, installs the tracing
wrappers for the cli workload, runs ``ps12splines.cli.main`` on the
remaining arguments under a span named ``cli.main``, writes the spans to
SPANS.json and exits with main's exit code.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer, install_cli  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    idx = tr.begin("cli.import")
    import ps12splines.cli as cli
    tr.end(idx)
    install_cli(tr)
    idx = tr.begin("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tr.end(idx)
        tr.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
