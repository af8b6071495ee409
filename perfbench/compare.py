"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records `perfbench/run.py --out FILE` appends, one run a
line. For every workload and metric this prints both sides' median and
quartiles and the change of the median. End-to-end metrics are judged
against their bound in BENCHMARK.json:

  worse       the median moved the wrong way by more than the bound
  unresolved  the base runs spread wider than the bound, and not every new
              run beats every base run
  ok          otherwise

Per-layer metrics have no bound and get no verdict. Each workload's line
also gives the median time of the host clock's calibration slice on both
sides (perfbench/hostspeed.py): the metrics are scaled by it, so a large
change there means the hosts differed in speed, not only the program.
Outcome digests are compared seed by seed. Exits 1 when any metric is worse or any digest
differs, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path) -> list:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def metric_values(runs, workload: str, trace: int) -> dict:
    out = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace:
            for name, m in run["result"]["metrics"].items():
                out.setdefault(name, []).append(m["value"])
    return out


def slice_ms(runs, workload: str, trace: int) -> float:
    """Median calibration-slice time in ms over the runs of one workload."""
    return statistics.median(
        r["detail"]["host"]["slice_ms_median"]
        for r in runs
        if r["workload"] == workload and r["trace"] == trace
    )


def verdict(base, new, better: str, bound: float) -> str:
    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (nm - bm) / bm
    if change > bound:
        return "worse"
    if (b3 - b1) / bm > bound:
        wins = all(sign * (n - b) < 0 for n in new for b in base)
        return "better" if wins else "unresolved"
    return "ok"


def digest_diffs(base_runs, new_runs) -> list:
    def digests(runs):
        return {
            (r["workload"], r["seed"]): r["detail"]["outcomes"]["outcome_digest"]
            for r in runs
            if r["trace"] == 0
        }

    a, b = digests(base_runs), digests(new_runs)
    return [f"{w} seed {s}" for (w, s) in sorted(set(a) & set(b)) if a[(w, s)] != b[(w, s)]]


def compare(base_runs, new_runs, spec: dict) -> tuple:
    """(report lines, whether anything regressed)."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines, regressed = [], False
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            base = metric_values(base_runs, workload, trace)
            new = metric_values(new_runs, workload, trace)
            names = [n for n in base if n in new]
            if not names:
                continue
            lines.append(f"{workload} ({'traced' if trace else 'end to end'}; "
                         f"{len(base[names[0]])} base runs, {len(new[names[0]])} new runs; "
                         f"calibration slice {slice_ms(base_runs, workload, trace):.4g} ms -> "
                         f"{slice_ms(new_runs, workload, trace):.4g} ms)")
            for name in names:
                b1, bm, b3 = quartiles(base[name])
                n1, nm, n3 = quartiles(new[name])
                delta = (nm - bm) / bm if bm else float("nan")
                row = (f"  {name:28s} {bm:11.5g} [{b1:.5g}, {b3:.5g}]  ->  "
                       f"{nm:11.5g} [{n1:.5g}, {n3:.5g}]  {delta:+8.2%}")
                if trace == 0 and name in bounds:
                    m = bounds[name]
                    v = verdict(base[name], new[name], m["better"], m["bound"])
                    regressed |= v == "worse"
                    row += f"  bound {m['bound']:.0%} {m['better']}: {v}"
                lines.append(row)
    diffs = digest_diffs(base_runs, new_runs)
    if diffs:
        regressed = True
        lines.append("outcome digests differ: " + ", ".join(diffs))
    else:
        lines.append("outcome digests: identical on every shared workload and seed")
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    lines, regressed = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
