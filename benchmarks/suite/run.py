# simlint: disable-file=wall-clock -- the suite measures the simulator's
# own host speed, not simulated time.
"""Figure-regeneration benchmark: whole paper figures, timed end to end.

    python3 benchmarks/suite/run.py [--workload NAME]... [--seed S]
        [--seconds T] [--trace [0|1]] [--out PATH] [--history PATH]
    python3 benchmarks/suite/run.py --write-reference

Four workloads (see ``workloads.py``) each regenerate a group of the
paper's figures by calling the same point functions the
``benchmarks/bench_*.py`` drivers call.  Every job runs in its own
fresh, single-threaded child process, one at a time, with every
``REPRO_*`` variable removed and ``PYTHONHASHSEED=0``.

Untraced (``--trace 0``, the default) each workload reports
``wall_s`` (calibrated seconds for one pass over its points, from
per-point medians), ``setup_s`` (median of 15 fresh children's import
time, calibrated) and ``peak_rss_mb``.
Traced (``--trace 1``) it reports the per-layer ledger and simulator
counters instead.  Every point result is checked against
``reference.json``; the run exits 1 if any point raised or differed,
or if a child failed or overran its time.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable table goes to
stderr.  Nothing is written unless ``--out``, ``--history`` or
``--write-reference`` asks for it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Dict

import calib
import workloads

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
SRC = ROOT / "src"
CHILD = SUITE_DIR / "child.py"

#: Fresh children whose import times give ``setup_s``.
SETUP_CHILDREN = 15
#: Seconds a child may take beyond the time it is asked to measure
#: before it is killed and the run fails.  The longest pass takes ~20 s,
#: the host can run 2x slow, and a traced child profiles one more pass
#: at up to ~4.5x the untraced time.
UNTRACED_SLACK_S = 60
TRACED_SLACK_S = 240


class ChildFailed(RuntimeError):
    """A benchmark child exited non-zero or overran its time."""


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"self_s": "s", "share": "ratio", "calls": "count"}
COUNTER_UNITS = {
    "sim.simulators": "count",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.front_absorption": "ratio",
    "sim.far_spills": "count",
    "sim.timer_pool_hit_rate": "ratio",
    "sim.batch_fused_ratio": "ratio",
    "trace_overhead": "ratio",
}

#: Anchor tests that must pass before ``--write-reference`` writes.
ANCHOR_TESTS = [
    "benchmarks/bench_table1_sba100.py",
    "benchmarks/bench_fig3_rtt.py",
    "benchmarks/bench_fig4_bandwidth.py",
    "benchmarks/bench_fig5_splitc.py",
    "benchmarks/bench_fig6_kernel_latency.py",
    "benchmarks/bench_fig7_udp_bandwidth.py",
    "benchmarks/bench_fig8_tcp_bandwidth.py",
    "benchmarks/bench_fig9_ip_latency.py",
]


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name in COUNTER_UNITS:
        return COUNTER_UNITS[name]
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_python(label: str, *args: str, timeout: float = UNTRACED_SLACK_S) -> dict:
    """Run a fresh interpreter to completion and parse its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{label} overran {timeout:g} s and was killed")
    if proc.returncode != 0:
        raise ChildFailed(f"{label} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(*args: str, timeout: float = UNTRACED_SLACK_S) -> dict:
    return run_python(f"child {' '.join(args)}", str(CHILD), *args, timeout=timeout)


def import_reading() -> float:
    """Seconds a fresh interpreter takes for the set-up yardstick."""
    return run_python("import yardstick", "-c", calib.IMPORT_KERNEL)["import_s"]


def measure_setup(workload: str) -> dict:
    """Median over fresh children of the workload's import time, each
    divided by the import yardstick timed in the fresh interpreter that
    runs right after it, in seconds on the reference host."""
    run_child("setup", workload)  # fills bytecode caches; not timed
    import_reading()
    raw, yardstick = [], []
    for _ in range(SETUP_CHILDREN):
        raw.append(run_child("setup", workload)["setup_s"])
        yardstick.append(import_reading())
    return {
        "setup_s": median(s / y for s, y in zip(raw, yardstick)) * calib.IMPORT_REF_S,
        "setup_raw_s": median(raw),
        "setup_calib_s": median(yardstick),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's metrics (``--trace`` picks which set) and diagnostics."""
    args = ["run", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        out = run_child(*args, "--trace", timeout=seconds + TRACED_SLACK_S)
    else:
        out = run_child(*args, timeout=seconds + UNTRACED_SLACK_S)
    diag = {
        "passes": out["passes"],
        "samples": out["samples"],
        "wall_raw_s": out["wall_raw_s"],
        "calib_s": out["calib_s"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "fail_ratio": out["failed"] / out["attempted"],
    }
    if trace:
        metrics = out["trace"]["metrics"]
        diag["traced_raw_s"] = out["trace"]["traced_raw_s"]
        diag["profiled_s"] = out["trace"]["profiled_s"]
    else:
        setup = measure_setup(workload)
        metrics = {
            "wall_s": out["wall_s"],
            "setup_s": setup.pop("setup_s"),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        diag.update(setup)
    return {"metrics": metrics, "diagnostics": diag}


def render_table(reports: Dict[str, dict]) -> str:
    lines = []
    for workload, rep in reports.items():
        d = rep["diagnostics"]
        lines.append(
            f"== {workload}: {d['passes']} pass(es), calib {d['calib_s']:.6f} s "
            f"over {d['samples']} samples (ref {calib.K_REF_S}), "
            f"fail_ratio {d['fail_ratio']:.4g} ({d['failed']}/{d['attempted']})"
        )
        if "traced_raw_s" in d:
            lines.append(
                f"  traced pass {d['traced_raw_s']:.3f} s raw, untraced "
                f"{d['wall_raw_s']:.3f} s raw; layer self-time covers "
                f"{d['profiled_s'] / d['traced_raw_s']:.1%} of the traced pass"
            )
        raw = {
            "wall_s": f"raw {d['wall_raw_s']:.4f} s",
            "setup_s": f"raw {d.get('setup_raw_s', 0):.4f} s, "
                       f"yardstick {d.get('setup_calib_s', 0):.4f} s "
                       f"(ref {calib.IMPORT_REF_S})",
        }
        for name, value in rep["metrics"].items():
            extra = f"  ({raw[name]})" if name in raw else ""
            lines.append(f"  {name:<28} {value:>14.6g} {unit_of(name)}{extra}")
    return "\n".join(lines)


def summary_line(reports: Dict[str, dict]) -> dict:
    """The result object; metric names are bare for one workload and
    ``<workload>.<metric>`` for several."""
    single = len(reports) == 1
    metrics = {}
    for workload, rep in reports.items():
        for name, value in rep["metrics"].items():
            key = name if single else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit_of(name)}
    attempted = sum(r["diagnostics"]["attempted"] for r in reports.values())
    failed = sum(r["diagnostics"]["failed"] for r in reports.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def git_revision() -> dict:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def write_reference() -> int:
    env = child_env()
    env["REPRO_BENCH_CACHE"] = "0"  # anchors from this source, not a cache
    anchors = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *ANCHOR_TESTS], cwd=ROOT, env=env,
    )
    if anchors.returncode != 0:
        print("paper anchors fail; reference.json not written", file=sys.stderr)
        return 1
    reference = {}
    for workload in workloads.WORKLOADS:
        reference.update(run_child("reference", workload))
    path = SUITE_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} points to {path}", file=sys.stderr)
    return 0


def default_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="workload to run; repeatable (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the point order inside every pass")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload; the benchmark "
                             "command is always given run_seconds from "
                             "BENCHMARK.json, which is also the default")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report the per-layer ledger")
    parser.add_argument("--out", type=Path, help="write the full report here")
    parser.add_argument("--history", type=Path,
                        help="append the report as one commit-keyed JSON line")
    parser.add_argument("--write-reference", action="store_true",
                        help="check the paper anchors, then rewrite reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else default_seconds()
    try:
        if args.write_reference:
            return write_reference()
        reports = {
            w: measure(w, args.seed, seconds, bool(args.trace))
            for w in (args.workload or workloads.WORKLOADS)
        }
    except ChildFailed as exc:
        print(f"{exc}; no result", file=sys.stderr)
        return 1
    print(render_table(reports), file=sys.stderr)
    line = summary_line(reports)
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": args.seed,
        "seconds": seconds,
        "trace": bool(args.trace),
        "k_ref_s": calib.K_REF_S,
        "workloads": reports,
        "result": line,
    }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    if args.history:
        with args.history.open("a") as fh:
            fh.write(json.dumps({**git_revision(), **record}) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
