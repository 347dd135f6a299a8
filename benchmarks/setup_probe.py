"""Set-up time of one fresh envforge process.

Run as ``python3 benchmarks/setup_probe.py <environment config>`` from the
repository root.  It times, from its own first statement, ``import
envforge.cli``, ``validate_environment_file`` on the config and
``Environment(config)``, and prints the three times in milliseconds as one
JSON line.  Only modules the interpreter has already loaded are imported
before the clock starts, so envforge pays for every import it needs.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import envforge.cli  # noqa: E402

t1 = time.perf_counter()
config, report = envforge.cli.validate_environment_file(sys.argv[1])
if config is None:
    print(report, file=sys.stderr)
    sys.exit(1)
t2 = time.perf_counter()
envforge.cli.Environment(config)
t3 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({
    "import_ms": (t1 - t0) * 1e3,
    "validate_ms": (t2 - t1) * 1e3,
    "build_ms": (t3 - t2) * 1e3,
}))
