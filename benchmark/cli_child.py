"""Run the substochastic CLI with the public library functions traced.

Usage: python3 benchmark/cli_child.py SPANS_FILE CLI_ARGS...

The spans are written to SPANS_FILE (JSON lines) when the command returns.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from substochastic import cli  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
