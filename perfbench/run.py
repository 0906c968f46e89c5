"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run, whose spans
the benchmark records around its own calls into each layer.  The last
stdout line is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the lines before it list every metric with its unit and
sample count, and the host facts.  The full record, spans included, is
written under ``perfbench/out/``.  The exit code is non-zero when an
output check fails or the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("solve-large", "serve-mixed", "stream-sessions")

#: Environment of every process of a run, beside its hash seed.  One
#: BLAS thread per process: with OpenBLAS's default pool of one thread
#: per CPU, a worker thread spins beside every solve, and on 2 vCPUs the
#: first DCSGA solves of a process took 0.72 s of wall time instead of
#: 0.15 s, with about 80 preemptions each.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def hash_seed(seed: int) -> str:
    """``PYTHONHASHSEED`` for every process of a run, from its seed.

    Some answers still depend on string hash order, so without a pinned
    seed neither the answers nor the output checks would repeat.
    """
    return str((seed * 2654435761 + 97) % 4294967296)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    wanted = hash_seed(args.seed)
    pinned = dict(PINNED_ENV, PYTHONHASHSEED=wanted)
    if any(os.environ.get(key) != value for key, value in pinned.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv, dict(os.environ, **pinned))
    sys.path.insert(0, SRC)

    from pb_common import END_TO_END, PER_LAYER, HostFacts, Pacer, Tally
    import pb_serve_mixed
    import pb_solve_large
    import pb_stream_sessions

    modules = {
        "solve-large": pb_solve_large,
        "serve-mixed": pb_serve_mixed,
        "stream-sessions": pb_stream_sessions,
    }
    out_dir = os.path.join(HERE, "out")
    pacer = Pacer(out_dir)
    try:
        pacer.wait_ready()
        host = HostFacts(args.workload, args.seed, wanted)
        tally = Tally()
        values, extra = modules[args.workload].run(args.seed, args.seconds, bool(args.trace), tally, pacer)
        facts = host.finish()
    finally:
        pacer.stop()
    facts["pace"] = pacer.summary()
    extra["pace_samples"] = list(zip(pacer.times, pacer.costs, pacer.busy, pacer.steal))

    catalogue = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        values["failed_frac"] = (tally.failed_frac, tally.attempted)
    metrics = {}
    for name, unit in catalogue:
        value, samples = values.get(name, (0.0, 0))
        metrics[name] = {"value": value, "unit": unit, "samples": samples}
        print(f"# {name:36s} {value:14.6f} {unit:9s} n={samples}")
    for table in ("setup_self_times", "self_times"):
        rows = sorted(extra.get(table, {}).items(), key=lambda item: -item[1]["self_s"])
        for name, row in rows:
            print(f"# {table}: {name:36s} calls={row['calls']:<6d} total={row['total_s']:.6f}s self={row['self_s']:.6f}s")
    for key, value in facts.items():
        print(f"# host.{key} = {value}")
    for reason in tally.reasons:
        print(f"# FAILED: {reason}")

    correct = tally.correct
    record_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seconds": args.seconds,
                "trace": args.trace,
                "host": facts,
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "failures": tally.reasons,
                "metrics": metrics,
                **extra,
            },
            handle,
            default=str,
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
