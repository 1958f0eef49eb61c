"""Runs one locdim CLI command with spans recorded, for traced cli-build runs.

    python3 perfbench/launcher.py SPANS_OUT ARGV...

Installs the same wrappers as the in-process workloads, calls
``locdim.cli.main(ARGV)``, writes the spans as JSON to SPANS_OUT and exits
with the CLI's exit code.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import locdim  # noqa: E402
import locdim.cli  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    budgets = []

    class RecordingBudget(locdim.cli.Budget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            budgets.append(self)

    locdim.cli.Budget = RecordingBudget
    tracer = Tracer()
    tracer.install(locdim)
    code = locdim.cli.main(argv)
    tracer.add("budget.nodes", sum(b.nodes for b in budgets))
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
