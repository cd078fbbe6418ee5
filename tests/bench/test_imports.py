"""Import footprint of the model and benchmark packages.

Every benchmark child process pays for ``import repro.atm, repro.bench``
before its first simulation, so the import chain is part of a figure's
set-up time.  Neither package needs process pools or any engine module
beyond the single scheduler at import time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: The only ``repro.sim`` submodules the model layers may pull in.
SIM_MODULES = {"repro.sim.engine", "repro.sim.resources", "repro.sim.trace"}

PROBE = """
import json, sys
import repro.atm, repro.bench
print(json.dumps(sorted(sys.modules)))
"""


def test_model_and_bench_imports_stay_lean():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert not any(m.split(".")[0] == "multiprocessing" for m in loaded)
    sim = {m for m in loaded if m.startswith("repro.sim.")}
    assert sim <= SIM_MODULES, sorted(sim - SIM_MODULES)
