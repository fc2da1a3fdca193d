"""The standing benchmark: one command, three workloads, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload web_browse --seed 1 --seconds 45 --trace 0

Each run plays a fixed, seeded schedule of operations, stopping early only
if ``--seconds`` runs out. ``--trace 0`` measures the end-to-end metrics
with tracing off. ``--trace 1`` plays the schedule twice, untraced and then
traced (each pass within ``--seconds``), and reports the per-layer metrics
plus the tracing overhead; its spans are written to ``.perfbench_out/``.
The program is imported from ``src/`` of the checkout this file sits in;
the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # setup_s is the median of this many fresh setups


def _workloads():
    from durable_ingest import DurableIngest
    from hub_sync import HubSync
    from web_browse import WebBrowse

    return {w.name: w for w in (WebBrowse, DurableIngest, HubSync)}


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _select(metrics: dict[str, float], kind: str) -> dict[str, tuple]:
    units = _declared(kind)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"no value measured for {missing}")
    return {name: (metrics[name], unit) for name, unit in units.items()}


def measure(workload, seconds: float) -> dict:
    """Untraced run: median set-up time; the last ``workload.replays``
    set-ups each play the timed loop; then the end phase on the last."""
    from common import Session

    session = Session(seconds)
    for index in range(SETUPS):
        path = workload.stage(index)
        gc.collect()
        state = session.measure("setup", workload.setup, path, trace=None)
        if state is None:
            raise RuntimeError("set-up failed")
        if index >= SETUPS - workload.replays:
            gc.collect()
            workload.run(state, session)
        if index < SETUPS - 1:
            workload.teardown(state)
            del state
    metrics = workload.finish(state, session, path)
    metrics.update(session.common_metrics())
    metrics["setup_s"] = session.median_s("setup")
    return _result(session, _select(metrics, "end_to_end"))


def traced(workload, seconds: float, out: Path) -> dict:
    """Traced run: the same schedule untraced, then traced."""
    from common import Session
    from tracing import LAYERS, Tracer

    passes = []
    tracer = Tracer()
    for index, tracing in enumerate((False, True)):
        path = workload.stage(index)
        if tracing:
            tracer.install()
        try:
            state = workload.setup(path)
            gc.collect()
            session = Session(seconds, tracer=tracer if tracing else None)
            workload.run(state, session)
            if tracing:
                workload.finish(state, session, path)
            else:
                workload.teardown(state)
        finally:
            tracer.uninstall()
        passes.append((session, session.ops_per_s()))
    (untraced, plain_rate), (session, traced_rate) = passes
    tracer.write_spans(out)
    metrics = tracer.layer_metrics()
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.overhead"] = plain_rate / traced_rate
    _report_layers(workload.name, tracer, tracer.active_layers(), LAYERS, out)
    session.attempted += untraced.attempted
    session.failed += untraced.failed
    return _result(session, _select(metrics, "per_layer"))


def _report_layers(workload: str, tracer, active: set[str], layers, out: Path) -> None:
    coverage = json.loads((HERE / "coverage.json").read_text())["workloads"][workload]
    for layer in layers:
        if layer in active:
            note = "" if layer in coverage["exercises"] else "  (coverage.json says bypassed)"
            print(f"# layer {layer}: active{note}")
        else:
            note = "" if layer in coverage["bypasses"] else "  (coverage.json says exercised)"
            print(f"# layer {layer}: no work on {workload}; its {layer}.* metrics read 0{note}")
    dropped = f", {tracer.dropped} more not kept" if tracer.dropped else ""
    print(f"# {len(tracer.spans)} spans written to {out.relative_to(ROOT)}{dropped}")


def _result(session, metrics: dict[str, tuple]) -> dict:
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": min(session.failed, session.attempted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Fix string hashing, and with it set and dict order inside the
    # program: a seed then replays the same run, and seeds differ only in
    # their inputs, not in hash-table layout.
    hash_seed = "0"
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        argv = sys.argv[1:] if argv is None else argv
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from common import meter_fsync

    meter_fsync()
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads[args.workload](args.seed, workdir)
        if args.trace:
            out = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
            result = traced(workload, args.seconds, out)
        else:
            result = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
