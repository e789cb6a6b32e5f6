"""Run one workload in this process and print its raw samples as one JSON line.

Started by run.py with BLAS pinned to one thread.  Set-up (importing
singfem and writing the seeded config) is timed from the first lines of
this file.  The timed loop then calls `singfem.cli.main(argv)` in a
closed loop, each command with a fresh output directory and its stdout
captured, until the next command would overrun --seconds.  Set-up and
untraced commands run under the host-speed probe (see hostspeed.py) and
are reported both as wall seconds and as seconds at the reference host
speed.  Every artifact must be byte-identical to the first one; the
first one is also checked by the workload's independent check after the
loop.
"""

import time

_T0 = time.perf_counter()

import hostspeed  # noqa: E402

_PROBE = hostspeed.SpeedProbe()
_PROBE.start()

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
MIN_COMMANDS = 2
Rep = collections.namedtuple("Rep", "traced rc wall net ref slowdown cpu digest size")


def _import_cli():
    """singfem's CLI entry point, from the checkout's own sources only."""
    sys.path.insert(0, str(SRC))
    import singfem.cli

    if SRC not in Path(singfem.cli.__file__).resolve().parents:
        raise ImportError(f"singfem was imported from outside {SRC}")
    return singfem.cli.main


def _machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_command(cli_main, argv, tracer):
    """(exit code or None, start, end, cpu s, captured output) of one command."""
    buf = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = tracer.command(cli_main, argv) if tracer else cli_main(argv)
    except Exception:  # a raw traceback is a failed command, not a crash
        rc = None
        buf.write(traceback.format_exc())
    return rc, t0, time.perf_counter(), time.process_time() - c0, buf.getvalue()


def _measure(cli_main, wl, seed, cfg_path, cli_seed, work, seconds, trace):
    import tracer as tracing

    argv = wl.argv + ["--config", str(cfg_path), "--seed", str(cli_seed)]
    tracer = tracing.Tracer() if trace else None
    reps = []
    t_start = time.perf_counter()
    if tracer:
        tracer.install()
    try:
        while True:
            i = len(reps)
            out = work / f"rep{i}"
            traced = tracer is not None and i % 2 == 1
            if traced:  # spans time the program alone
                _PROBE.stop()
            rc, t0, t1, cpu, log = _run_command(
                cli_main, argv + ["--out", str(out)], tracer if traced else None)
            if traced:
                _PROBE.start()
                net, ref, slowdown = t1 - t0, None, None
            else:
                net, ref, slowdown = _PROBE.interval(t0, t1)
            artifact = out / wl.artifact
            digest, size = None, 0
            if artifact.exists():
                data = artifact.read_bytes()
                digest, size = hashlib.sha256(data).hexdigest(), len(data)
            if rc != 0:
                print(f"{wl.name}: command {i} exited {rc}\n{log}", file=sys.stderr)
            reps.append(Rep(traced, rc, t1 - t0, net, ref, slowdown, cpu, digest, size))
            if i == 0:
                # What a user running one command per process would see;
                # later commands add in-process heap growth.
                peak_rss_mb = _peak_rss_mb()
            else:
                shutil.rmtree(out)
            elapsed = time.perf_counter() - t_start
            typical = statistics.median(r.wall for r in reps)
            if len(reps) >= MIN_COMMANDS and elapsed + typical > seconds:
                break
    finally:
        _PROBE.stop()
        if tracer:
            tracer.uninstall()

    first = work / "rep0" / wl.artifact
    if reps[0].rc == 0 and first.exists():
        ref_failed, check = wl.check(first, json.loads(cfg_path.read_text()))
    else:
        ref_failed, check = wl.units_per_command, {"error": "first command failed"}
    failed = 0
    for r in reps:
        if r.rc != 0 or r.digest is None or r.digest != reps[0].digest:
            failed += wl.units_per_command
        else:
            failed += ref_failed

    untraced = [r for r in reps if not r.traced]
    result = {
        "attempted": len(reps) * wl.units_per_command,
        "failed": failed,
        "units": wl.units,
        "walls": [r.wall for r in untraced],
        "ref_walls": [r.ref for r in untraced],
        "slowdowns": [r.slowdown for r in untraced],
        "peak_rss_mb": peak_rss_mb,
        "check": check,
    }
    if tracer:
        spans_dir = BENCH / ".out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"spans-{wl.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        per_cmd = [tracing.command_metrics(spans) for spans in tracer.commands]
        layers = {k: statistics.fmean(m[k] for m in per_cmd) for k in per_cmd[0]}
        layers["plaplace.useful_stage_ratio"] = (
            layers["plaplace.useful_stages"] / layers["plaplace.stages"]
            if layers["plaplace.stages"] else 0.0)
        layers["cli.artifact_bytes"] = statistics.fmean(r.size for r in reps)
        layers["process.cpu_s"] = statistics.fmean(r.cpu for r in untraced)
        layers["process.wall_s"] = statistics.median(r.wall for r in untraced)
        layers["host.slowdown_ratio"] = statistics.median(r.slowdown for r in untraced)
        # The whole process's peak, so growth across commands shows here.
        layers["process.peak_rss_mb"] = _peak_rss_mb()
        traced_walls = [r.wall for r in reps if r.traced]
        layers["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(r.net for r in untraced) - 1.0)
        result.update(per_layer=layers, traced_commands=len(per_cmd),
                      spans=str(spans_path.relative_to(BENCH.parent)))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    args = parser.parse_args()

    cli_main = _import_cli()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    work = BENCH / ".work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg, cli_seed = wl.inputs(args.seed)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg, sort_keys=True))
        t_setup = time.perf_counter()
        _, setup_ref, _ = _PROBE.interval(_T0, t_setup)
        result = {"setup_s": setup_ref, "setup_wall_s": t_setup - _T0}
        if not args.setup_only:
            result.update(_measure(cli_main, wl, args.seed, cfg_path, cli_seed, work,
                                   args.seconds, args.trace))
            result.update(machine=_machine(), config=cfg, cli_seed=cli_seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        _PROBE.stop()
