"""lumenrem benchmark: one closed-loop client per workload, seeded inputs, checked outputs.

Run from the repository root:

    python3 benchmarks/run.py --workload {simulate,fit,query} --seed N --seconds S --trace {0,1}

With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
wraps the public functions of every lumenrem module and reports per-layer
metrics (see README.md). The metric names and units are those listed in
BENCHMARK.json at the repository root. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it is a JSON report with the run environment and the named figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WARM_UP = ("each set-up ends by calling every program function of the cycle once on "
           "small inputs, so first-call costs are paid before the timed section")


def pin_threads() -> dict:
    """At most 2 threads, and never more than the CPUs this process may run on."""
    n = str(min(2, len(os.sched_getaffinity(0))))
    env = {k: n for k in ("LUMEN_REM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")}
    os.environ.update(env)
    return env


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("simulate", "fit", "query"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed section")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def emit(spec_metrics: list[dict], values: dict) -> dict:
    """Every metric BENCHMARK.json names for this mode, with its unit."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def run(args, sizes, import_s: float, spec: dict, threads: dict) -> tuple[dict, dict]:
    """One benchmark run; returns (report, result)."""
    import lumenrem
    from layers import OBSERVERS, combine, cycle_phase, layer_metrics, phase_totals
    from tracer import Tracer, write_spans
    from workloads import FIGURES, WORKLOADS, Calibrator, Recorder

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    work_root = ROOT / ".bench_work"
    workdir = work_root / run_id
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, sizes, workdir)
        setup_rec = Recorder()
        setup_times = []
        for _ in range(sizes.setup_reps):
            start, checks = time.perf_counter(), setup_rec.check_s
            wl.setup(setup_rec)
            setup_times.append(time.perf_counter() - start - (setup_rec.check_s - checks))
            setup_rec.end_cycle()
        recs = [setup_rec]

        tracer = Tracer(lumenrem, OBSERVERS) if args.trace else None
        if tracer:
            trec_setup = Recorder(tracer)
            with tracer:
                start = time.perf_counter()
                wl.setup(trec_setup)
                traced_setup_s = time.perf_counter() - start - trec_setup.check_s
                unseen = tracer.unseen_calls()
            spans, counts, notes = tracer.take()
            all_spans = list(spans)
            setup_phase = phase_totals(spans, counts, notes)
            setup_phase = combine(setup_phase, trec_setup.end_cycle())
            recs.append(trec_setup)

        rec = Recorder(calibrator=Calibrator(workdir / "calibration.json"))
        trec = Recorder(tracer)
        recs += [rec, trec]
        per_cycle = []
        min_cycles = sizes.min_cycles * (2 if tracer else 1)
        start = time.perf_counter()
        n = 0
        while n < min_cycles or time.perf_counter() - start < args.seconds:
            if tracer and n % 2:
                with tracer:
                    wl.cycle(trec)
                spans, counts, notes = tracer.take()
                all_spans += spans
                per_cycle.append(combine(phase_totals(spans, counts, notes), trec.end_cycle()))
            else:
                wl.cycle(rec)
                rec.end_cycle()
            n += 1
        timed_s = time.perf_counter() - start

        total = Recorder()
        for r in recs:
            total.merge_failures(r)
        report = {
            "workload": args.workload,
            "why": wl.why,
            "env": {
                "hardware_note": lumenrem.evalmap.hardware_note(),
                "threads": threads,
                "affinity_cpus": len(os.sched_getaffinity(0)),
                "seed": args.seed,
                "seconds": args.seconds,
                "warm_up": WARM_UP,
                "sizes": {k: getattr(sizes, k) for k in sizes.__dataclass_fields__},
            },
            "import_s": import_s,
            "setup_reps_s": setup_times,
            "cycles": n,
            "timed_s": timed_s,
            "cycle_s": rec.cycle_time(),
            "cycle_cal": rec.cycle_time(calibrated=True),
            "calibration_kernel_s": statistics.median(rec.calibrator.blocks),
            "step_times_s": rec.step_times(),
            "step_times_cal": rec.step_times(calibrated=True),
            "figures": dict.fromkeys(FIGURES, 0.0) | wl.figures(rec),
        }
        if tracer:
            cycle, unstable = cycle_phase(per_cycle)
            if unstable:
                total.fail_op(f"traced counts differ between cycles: {unstable}")
            values = layer_metrics(combine(setup_phase, cycle), total.failed_by_layer)
            values.update(report["figures"])
            values["error_rate"] = total.failed / total.attempted
            values["cycle_s"] = report["cycle_s"]
            values["trace.setup_overhead_s"] = traced_setup_s - statistics.median(setup_times)
            values["trace.cycle_overhead_s"] = trec.cycle_time() - report["cycle_s"]
            metrics = emit(spec["per_layer"], values)
            spans_path = work_root / f"spans-{args.workload}.jsonl"
            write_spans(all_spans, run_id, spans_path)
            report["tracing"] = {
                "traced_setup_s": traced_setup_s,
                "traced_cycle_s": trec.cycle_time(),
                "spans": len(all_spans),
                "spans_file": str(spans_path.relative_to(ROOT)),
                "computed_not_measured": ["channel.refine_pairs", "channel.refine_row_share"],
                "unseen_calls": unseen,
            }
        else:
            metrics = emit(spec["end_to_end"], {
                "setup_s": import_s + statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "cycle_cal": report["cycle_cal"],
            })
        report["failures"] = total.messages
        result = {"correct": total.failed == 0, "attempted": total.attempted,
                  "failed": total.failed, "metrics": metrics}
        return report, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lumenrem").is_dir():
        print(f"error: no lumenrem sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    threads = pin_threads()
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    start = time.perf_counter()
    import workloads  # imports numpy and every lumenrem module

    import_s = time.perf_counter() - start
    report, result = run(args, sizes or workloads.FULL, import_s, spec, threads)
    print(json.dumps(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
