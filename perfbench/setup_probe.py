"""Set-up time of one fresh interpreter: import boxlab, then run a
workload's warm-up operations through boxlab.cli.main.

    python3 perfbench/setup_probe.py SRC_DIR WARMUP_JSON

WARMUP_JSON holds a list of argument lists. Prints the seconds from before
the import to the end of the last warm-up operation.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from boxlab import cli, polytope, tribox  # noqa: E402

with open(sys.argv[2]) as fh:
    warmup = json.load(fh)
for argv in warmup:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except (polytope.ResidualInvalidError, tribox.NotInPolytopeError):
            pass  # documented refusals; they still did the work
print(repr(time.perf_counter() - START))
