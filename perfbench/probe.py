"""Set-up probe: import triseries and its CLI from this checkout's src/,
build the argument parser, then print "ready".  run.py times a fresh
interpreter running this file up to that line.  The probe samples the speed
of its core while it sets up (see calibrate.py) and then prints, as JSON,
its CPU seconds up to "ready", the CPU seconds those samples took and the
speeds seen, the last one measured after "ready"."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from calibrate import SpeedSampler, cpu_seconds, speed  # noqa: E402  (imports numpy)

sampler = SpeedSampler()
sampler.start()
import triseries  # noqa: E402
import triseries.cli  # noqa: E402

triseries.cli.build_parser()
sampler.stop()
cpu = cpu_seconds()
print("ready", flush=True)
print(json.dumps({"cpu": cpu, "spent": sampler.spent,
                  "speeds": sampler.samples + [speed()]}))
