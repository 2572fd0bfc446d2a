"""Traced cold CLI process: `python3 perfbench/cold_child.py <abmodes argv>`.

Behaves like `python -m abmodes.cli <argv>` with the tracer installed; after
the command it writes the tracer's totals as one stderr line that starts with
worker.TRACE_PREFIX, for the worker to merge into its own trace.
"""

import json
import sys

from tracer import Tracer
from worker import TRACE_PREFIX


def main():
    tracer = Tracer()
    tracer.install()
    import abmodes.cli

    tracer.begin_item(0)
    tracer.enabled = True
    try:
        code = abmodes.cli.run(sys.argv[1:])
    finally:
        tracer.enabled = False
        tracer.end_item(True)
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
