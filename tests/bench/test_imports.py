"""Import footprint and default instrumentation state of the model and
benchmark packages.

Every benchmark child process pays for importing the model and bench
packages before its first simulation, so the import chain is part of a
figure's set-up time.  None of them needs process pools, numpy,
hashing, pickling or any engine module beyond the single scheduler at
import time.  A default run, with no ``REPRO_*`` switch set, must also
leave every instrumentation hook unarmed, so none of it costs time
when off.
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
import repro.atm, repro.bench, repro.ip, repro.bench.ip
print(json.dumps(sorted(sys.modules)))
"""


INSTRUMENTATION_PROBE = """
import json
from repro import obs
from repro.analysis import sanitize
from repro.bench import raw_rtt
from repro.sim import Simulator, engine

raw_rtt(32, n=4)
print(json.dumps({
    "monitor_factory": engine._monitor_factory is None,
    "access_hook": engine.access_hook is None,
    "obs": obs.active is None,
    "sanitize": not sanitize.enabled(),
    "calendar_core": type(Simulator()) is Simulator,
}))
"""


def _run_probe(code):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    return json.loads(out)


def test_model_and_bench_imports_stay_lean():
    loaded = set(_run_probe(PROBE))
    heavy = {m.split(".")[0] for m in loaded} & {
        "hashlib", "multiprocessing", "numpy", "pickle",
    }
    assert not heavy, sorted(heavy)
    sim = {m for m in loaded if m.startswith("repro.sim.")}
    assert sim <= SIM_MODULES, sorted(sim - SIM_MODULES)


def test_instrumentation_is_off_by_default():
    unarmed = _run_probe(INSTRUMENTATION_PROBE)
    assert all(unarmed.values()), unarmed
