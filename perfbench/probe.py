"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 probe.py SRC CALL [CALL ...], each CALL one CLI argv joined by
tabs.  Prints the seconds from the start of ``import fareyloops.cli`` to the
end of the first call of every given command, scaled by the calibration loop
run just before and just after.  Nothing but ``time`` is imported before the
clock starts, so the standard-library modules the program pulls in count
toward its set-up.
"""

import io
import sys
import time

from calib import calibrate, scale

sys.path.insert(0, sys.argv[1])
calibrate()  # the loop's own first run is slower
before = calibrate()
start = time.perf_counter()
import fareyloops.cli  # noqa: E402

for call in sys.argv[2:]:
    code = fareyloops.cli.main(call.split("\t"), out=io.StringIO())
    if code != 0:
        sys.exit(f"probe call failed with exit code {code}: {call!r}")
seconds = time.perf_counter() - start
print(repr(scale(seconds, before, calibrate())))
