"""singfem benchmark: CLI commands timed end to end, with a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see BENCHMARK.json for why
each was chosen): laplace_refined, plap_p4, sweep_cusp.

The package is serial, so the load is a closed loop from one process:
the next `singfem.cli.main(argv)` call starts when the previous one
returns.  Each workload runs in its own worker process with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1.  Set-up (importing
singfem and writing the seeded inputs) is timed in SETUP_RUNS extra
worker processes, half before and half after the measuring one, plus the
measuring one itself, and reported as their median.  --seconds covers
the set-up runs and the timed loop: the loop gets what the set-up runs
leave, so a slow host does not stretch a run.

The host's core speed changes by up to 2x with what other tenants run,
so times are taken under hostspeed.py's probe and reported in seconds at
the reference host speed ("ref seconds"); the raw wall seconds are
printed beside them.

--trace 0 reports the end-to-end metrics: wall_ref_s (median ref seconds
of one command, artifact write included, checks excluded), setup_s
(median ref seconds of set-up) and peak_rss_mb (peak resident set of the
measuring process through its first command).  --trace 1 alternates
untraced and traced commands and reports the per-layer self times and
counts (see tracer.py) in wall seconds, with the wall time and the host
slowdown of the untraced commands; it runs no extra set-up runs.  Human
readable lines come first; the last line of stdout is the JSON result.
The exit code is nonzero, with no result printed, if a worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 6
DEADLINE = time.monotonic() + 170.0  # the whole run must end within 180 s


def _worker(args, extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    n_setup = 0 if args.trace else SETUP_RUNS // 2
    t0 = time.monotonic()
    setups = [_worker(args, ["--setup-only"]) for _ in range(n_setup)]
    loop_s = max(0.0, args.seconds - 2 * (time.monotonic() - t0))
    res = _worker(args, ["--seconds", str(loop_s), "--trace", str(args.trace)])
    setups.append(res)
    setups += [_worker(args, ["--setup-only"]) for _ in range(n_setup)]

    walls, refs = res["walls"], res["ref_walls"]
    print(f"machine: {json.dumps(res['machine'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: "
          f"config {json.dumps(res['config'], sort_keys=True)}, cli seed {res['cli_seed']}")
    print(f"check: {json.dumps(res['check'], sort_keys=True)}")
    e2e = {
        "wall_ref_s": (statistics.median(refs), "s",
                       f"median of {len(refs)} commands, min {min(refs):.4f}, "
                       f"max {max(refs):.4f}; wall median {statistics.median(walls):.4f}, "
                       f"host slowdown median {statistics.median(res['slowdowns']):.3f}"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s",
                    f"median of {len(setups)} set-ups; wall median "
                    f"{statistics.median(r['setup_wall_s'] for r in setups):.4f}"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB",
                        "measuring process, through its first command"),
    }
    for name, (value, unit, note) in e2e.items():
        print(f"{name:<14} {value:12.6f} {unit:<3} ({note})")
    print(f"{'failed_ratio':<14} {res['failed'] / res['attempted']:12.6f}     "
          f"({res['failed']}/{res['attempted']} {res['units']})")

    if args.trace:
        layers = res["per_layer"]
        print(f"per-layer: mean per command over {res['traced_commands']} traced commands; "
              f"spans in {res['spans']}")
        self_sum = sum(v for k, v in layers.items()
                       if k.endswith("_s") and not k.startswith(("process.", "trace.")))
        for name in sorted(layers):
            print(f"  {name:<30} {layers[name]:.6f}")
        print(f"  self times sum to {self_sum:.6f} s; traced command "
              f"{layers['trace.command_s']:.6f} s; useful IRLS stages "
              f"{layers['plaplace.useful_stages']:g}/{layers['plaplace.stages']:g}")
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in sorted(layers.items())}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in e2e.items()}

    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
