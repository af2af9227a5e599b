"""Set-up as a user pays it: a fresh interpreter imports the CLI module, then
loads and validates each spec file named on the command line.

Prints the seconds the `spimmwave.cli` import took. Usage:
    python3 perfbench/setup_probe.py SPEC.json [SPEC.json ...]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import spimmwave.cli  # noqa: E402,F401

import_s = time.perf_counter() - start

from spimmwave.experiments import load_spec  # noqa: E402

for spec_file in sys.argv[1:]:
    load_spec(spec_file)
print(import_s)
