"""Write the equivalence set of a refactor and list its files' sha256.

Usage: python3 tools/equivalence.py OUT_DIR   (from any directory)

Every file is written through radstack.cli.main, from the package source of
the checkout this script sits in, into OUT_DIR:

  scenarios/         the seed-7 and seed-8 file of every synthetic kind
  bench_rules.json   bench of rad and baseline-static, toggles full and no_relax,
  bench_rules_logs/  with every episode's log
  runs/              run --breakdowns logs of rad and baseline-static
  vocab.json         cluster-vocab --k 8 --seed 3 over runs/
  model.json         train-head --epochs 30 --seed 5 over runs/
  bench_learned.json bench of hybrid, planhead and rad with that vocabulary and model
  hybrid_runs/       run --breakdowns logs of hybrid

Then it prints one "sha256  path" line per file, paths relative to OUT_DIR,
sorted. Two checkouts whose listings are equal wrote the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from radstack.cli import main as cli  # noqa: E402
from radstack.scene import SCENARIO_KINDS  # noqa: E402


def _run(*argv) -> None:
    """One CLI command, its stdout dropped; a failed command ends the script."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli([str(a) for a in argv])
    if code != 0:
        sys.exit(f"{' '.join(map(str, argv))}: exit {code}: {err.getvalue().strip()}")


def write_set(out: Path) -> None:
    scenarios, runs, hybrid_runs = out / "scenarios", out / "runs", out / "hybrid_runs"
    runs.mkdir(parents=True)
    hybrid_runs.mkdir()
    for kind in SCENARIO_KINDS:
        _run("gen-scenarios", "--kind", kind, "--count", 2, "--seed", 7, "--out", scenarios)
    _run(
        "bench", "--scenarios", scenarios, "--planners", "rad,baseline-static", "--toggles", "full,no_relax",
        "--report", out / "bench_rules.json", "--logs-dir", out / "bench_rules_logs",
    )
    paths = sorted(scenarios.glob("*.json"))
    for p in paths:
        for planner in ("rad", "baseline-static"):
            log = runs / f"{p.stem}__{planner}.jsonl"
            _run("run", "--scenario", p, "--planner", planner, "--breakdowns", "--log", log)
    vocab, model = out / "vocab.json", out / "model.json"
    _run("cluster-vocab", "--episodes", runs, "--k", 8, "--seed", 3, "--out", vocab)
    _run("train-head", "--samples", runs, "--vocab", vocab, "--epochs", 30, "--seed", 5, "--out", model)
    _run(
        "bench", "--scenarios", scenarios, "--planners", "hybrid,planhead,rad",
        "--vocab", vocab, "--model", model, "--report", out / "bench_learned.json",
    )
    for p in paths:
        _run(
            "run", "--scenario", p, "--planner", "hybrid", "--vocab", vocab, "--model", model,
            "--breakdowns", "--log", hybrid_runs / f"{p.stem}__hybrid.jsonl",
        )


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out}: not empty", file=sys.stderr)
        return 2
    os.environ.pop("RADSTACK_SEED", None)  # the set is written at its own seeds
    write_set(out)
    for path in sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256((out / path).read_bytes()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
