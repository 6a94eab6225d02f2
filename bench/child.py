"""Fresh-interpreter helper for run.py: set-up time and peak RSS.

    python3 bench/child.py SRC_DIR SCENARIO [CLI ARGS...]

Imports ``ulmimo.cli`` from SRC_DIR and parses SCENARIO while contention.py
samples the core, then prints the probe's sample as one JSON line as soon
as both are done, so the parent can time set-up from process start. With
CLI ARGS it then runs that one CLI call and prints a JSON line with the
exit code, ``"exception"`` if the call raised, and the process's peak
resident set.
BLAS threads are pinned by the parent through the environment.
"""

import json
import resource
import sys
import traceback

from contention import ContentionProbe  # loads numpy, which ulmimo needs too

sys.path.insert(0, sys.argv[1])
with ContentionProbe().sampling() as sample:
    from ulmimo import cli
    from ulmimo.scenario import parse_scenario
    parse_scenario(sys.argv[2])
print(json.dumps(sample), flush=True)
if len(sys.argv) > 3:
    try:
        code = cli.main(sys.argv[3:])
    except Exception:  # a crash of the program is a failed call
        traceback.print_exc()
        code = "exception"
    print(json.dumps({"code": code,
                      "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
