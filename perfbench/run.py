"""Closed-loop benchmark of radstack: one workload, one seed, one run.

    python3 perfbench/run.py --workload rad_sparse --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src. With
--trace 0 the last line of standard output is a JSON object whose metrics are
the end-to-end metrics; with --trace 1 they are the per-layer metrics of a
traced run. Every time is scaled to a reference host speed by the
calibration slices of perfbench/hostspeed.py; the unscaled wall-clock
figures and the slices' own times are in the detail line. The line before it carries the outcome rows, their digest and
the run's settings. --out FILE also appends both to FILE as one JSON line,
the input of perfbench/compare.py.
"""

import os

# Pin BLAS to one thread before numpy is imported: the benchmark is a single
# closed loop, and BLAS threads would only contend with it on two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0  # set up again until this much set-up time has passed
MIN_TICKS = 1000  # p99 then has at least 10 ticks beyond it
TRACE_TOLERANCE = 0.05  # traced stage time within 5% of PlanResult.stage_times
SHOWN_PROBLEMS = 10

# Layers only the hybrid planner runs. They are measured on every traced run
# but are zero on the rad_* workloads, so they are reported beside the
# metrics rather than as metrics.
HYBRID_LAYER_UNITS = {
    "vocabulary.instantiate_ms": "ms",
    "planhead.features_ms": "ms",
    "planhead.plan_anytime_ms": "ms",
    "hybrid.select_ms": "ms",
    "setup.experts_s": "s",
    "setup.kmeans_s": "s",
    "setup.train_s": "s",
}


def _import_program():
    """Put ./src first on sys.path and check radstack comes from there.

    The benchmark's own modules import radstack, so they are imported only
    after this, inside the functions that use them.
    """
    if not (SRC / "radstack" / "__init__.py").is_file():
        sys.exit(f"perfbench: no radstack sources at {SRC / 'radstack'}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import radstack

    if Path(radstack.__file__).resolve().parent != (SRC / "radstack").resolve():
        sys.exit(f"perfbench: radstack was imported from {radstack.__file__}, not {SRC}")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="append the run's record to this JSON-lines file")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _setup(workload: str, seed: int, host):
    """Build the lap's scenarios and planners and plan once on each scenario.

    Returns (scenarios, planner factory, hybrid set-up stage times).
    """
    import workloads

    assets = None
    if workload == "hybrid_vocab":
        assets = workloads.build_hybrid_assets(seed, host)
    scenarios = workloads.workload_scenarios(workload, seed)
    factory = workloads.planner_factory(workload, assets)
    for _, scenario in scenarios:  # warm-up: first calls fill lazy caches
        factory(scenario).plan(scenario.ego, list(scenario.agents), t=0.0)
    return scenarios, factory, (assets.stage_spans if assets else {})


def _setups(workload: str, seed: int, host) -> tuple:
    """(scenarios, planner factory, [(set-up span, hybrid stage spans)]).

    Sets up at least SETUP_MIN_REPS times and for at least SETUP_MIN_S of
    wall time. Spans are host.wall() readings.
    """
    reps = []
    while len(reps) < SETUP_MIN_REPS or sum(b - a for (a, b), _ in reps) < SETUP_MIN_S:
        host.checkpoint()
        t0 = host.wall()
        scenarios, factory, stage_spans = _setup(workload, seed, host)
        reps.append(((t0, host.wall()), stage_spans))
    return scenarios, factory, reps


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _measure(scenarios, factory, budget, host, tracer=None):
    from closedloop import Recorder, run_closed_loop

    recorder = Recorder(budget=budget, host=host, keep_results=tracer is not None)
    return run_closed_loop(scenarios, factory, recorder, tracer=tracer)


def _count_metrics(results) -> dict:
    n = max(len(results), 1)
    scored = sum(len(r.breakdowns) for r in results)
    feasible = sum(b.aggregate > 0 for r in results for b in r.breakdowns)
    rows = sum(
        sum(p.s_track is not None for p in r.proposals) for r in results if r.proposals is not None
    )
    return {
        "topology.paths_per_tick": sum(len(r.paths) for r in results) / n,
        "proposals.rows_per_tick": rows / n,
        "scoring.scored_per_tick": scored / n,
        "scoring.feasible_ratio": feasible / max(scored, 1),
    }


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
    }


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _declared_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def run(args) -> tuple:
    """(last-line result, detail) of one run."""
    from closedloop import highest_percentile, outcome_summary, percentile_with_tail
    from hostspeed import REF_SLICE_S, HostClock
    import tracing
    from workloads import TICK_RATES

    host = HostClock()
    scenarios, factory, setups = _setups(args.workload, args.seed, host)
    budget = max(MIN_TICKS, round(args.seconds * TICK_RATES[args.workload]))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tick_budget": budget,
        "scenarios": [name for name, _ in scenarios],
        "environment": _environment(),
    }
    problems = []
    if args.trace == 0:
        loop = _measure(scenarios, factory, budget, host)
    else:
        # The same ticks twice: untraced, then traced, for the tracing overhead.
        plain = _measure(scenarios, factory, budget // 2, host)
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            loop = _measure(scenarios, factory, budget // 2, host, tracer=tracer)
    setup_s = float(np.median(host.scale([span for span, _ in setups])))
    setup_stages = {k: float(np.median(host.scale([st[k] for _, st in setups]))) for k in setups[0][1]}
    loop_s, loop_wall_s = float(host.scale([loop.span])[0]), loop.span[1] - loop.span[0]
    detail["host"] = {
        "ref_slice_ms": REF_SLICE_S * 1e3,
        "slice_ms_median": statistics.median(host.slices) * 1e3,
        "slice_ms_quartiles": [q * 1e3 for q in statistics.quantiles(host.slices, n=4)],
        "slices": len(host.slices),
        "setup_reps": len(setups),
    }

    if args.trace == 0:
        rec = loop.recorder
        plan_s = host.scale(rec.plan_spans)
        plan_wall_s = [b - a for a, b in rec.plan_spans]
        values = {
            "tick_p50_ms": percentile_with_tail(plan_s, 50) * 1e3,
            "tick_p99_ms": percentile_with_tail(plan_s, 99) * 1e3,
            "ticks_per_s": rec.ticks / loop_s,
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
        }
        metrics = _metric_block(values, _declared_units("end_to_end"))
        detail.update(
            ticks=rec.ticks,
            highest_percentile=highest_percentile(rec.ticks),
            wall={
                "tick_p50_ms": percentile_with_tail(plan_wall_s, 50) * 1e3,
                "tick_p99_ms": percentile_with_tail(plan_wall_s, 99) * 1e3,
                "ticks_per_s": rec.ticks / loop_wall_s,
            },
        )
    else:
        ticks = loop.recorder.ticks
        values = tracing.layer_metrics(tracer, ticks, loop_s / loop_wall_s)
        values.update(_count_metrics(loop.recorder.results))
        values["trace.overhead"] = loop_s / float(host.scale([plain.span])[0])
        values.update(setup_stages)
        metrics = _metric_block(values, _declared_units("per_layer"))
        agreement = tracing.stage_agreement(tracer, loop.recorder.results)
        detail.update(
            ticks=ticks,
            hybrid_layers=_metric_block(
                {k: values.get(k, 0.0) for k in HYBRID_LAYER_UNITS}, HYBRID_LAYER_UNITS
            ),
            stage_agreement=agreement,
            trace_tolerance=TRACE_TOLERANCE,
        )
        for stage, ratio in agreement.items():
            if not abs(ratio - 1.0) <= TRACE_TOLERANCE:
                problems.append(f"traced {stage} time is {ratio:.3f} x its stage_times")
        if outcome_summary(plain.episodes)["outcome_digest"] != outcome_summary(loop.episodes)["outcome_digest"]:
            problems.append("the traced pass changed the episode outcomes")

    # An episode whose output fails a check counts as a failed operation, as
    # does one that raises. `correct` covers the measurement itself: repeated
    # episodes replay exactly and the tracer agrees with the program.
    summary = outcome_summary(loop.episodes)
    failures = summary.pop("output_check_failures")
    problems += [f"repeat differs: {m}" for m in summary["repeat_mismatches"]]
    detail["outcomes"] = summary
    detail["problems"] = problems
    detail["output_check_failures"] = failures[:SHOWN_PROBLEMS]
    detail["output_check_failure_count"] = len(failures)
    result = {
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    return result, detail


def _print_report(result: dict, detail: dict) -> None:
    out = detail["outcomes"]
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"ticks {detail['ticks']} (budget {detail['tick_budget']})")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for name, m in detail.get("hybrid_layers", {}).items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for name in ("goal_rate", "collision_rate", "route_completion_mean", "error_rate"):
        print(f"  {name:28s} {out[name]:.6g} ratio")
    print(f"  {'outcome_digest':28s} {out['outcome_digest']}")
    for name, value in detail.get("wall", {}).items():
        print(f"  {'wall ' + name:28s} {value:.6g} (unscaled)")
    host = detail["host"]
    print(f"  calibration slice median {host['slice_ms_median']:.4g} ms over {host['slices']} slices "
          f"(reference {host['ref_slice_ms']:.4g} ms); {host['setup_reps']} set-ups")
    print(f"  correct {result['correct']}  attempted {result['attempted']}  failed {result['failed']}")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    for failure in detail["output_check_failures"]:
        print(f"  output check failed: {failure}")
    shown = len(detail["output_check_failures"])
    if detail["output_check_failure_count"] > shown:
        print(f"  ... {detail['output_check_failure_count'] - shown} more output check failures")


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    result, detail = run(args)
    _print_report(result, detail)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "result": result, "detail": detail}
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
