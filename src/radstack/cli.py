"""Command-line entry point wiring all modules.

Subcommands: gen-scenarios, run, cluster-vocab, train-head, bench, render.
Usage errors exit 2; runtime errors exit 1 with a command-tagged message.
Every command is deterministic given its flags and seed; RADSTACK_SEED
overrides seed flags for CI. Every output flag's directory (a file's parent,
or the directory itself) is created with its parents; when that fails the
command exits 1 with an IoError naming the flag.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from .bench import REPORT_FORMATS, TOGGLE_PRESETS, emit_report, run_suite
from .config import build_configs, load_config, resolve_seed
from .errors import IoError, RadstackError, from_text, integer, number
from .planhead import harvest_training_samples, init_model, load_model, save_model, train
from .planner import PLANNER_KINDS, Planner
from .scene import SCENARIO_KINDS, generate_synthetic_scenario, load_scenario, save_scenario
from .render import render_episode_svg
from .simulator import load_episode_log, record_agents, run_episode, save_episode_log
from .vocabulary import kmeans_cluster, load_vocabulary, save_vocabulary, slice_ego_windows


# argparse types: an integer >= 1, a finite number > 0.
_count = partial(from_text, read=integer, error=argparse.ArgumentTypeError, at_least=1)
_positive_float = partial(from_text, read=number, error=argparse.ArgumentTypeError, above=0)


def _names(text: str) -> list:
    """argparse type of a comma-separated list: its non-empty names, at least one."""
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"no name in {text!r}; give at least one, comma-separated")
    return names


def _output_dir(path, flag: str) -> Path:
    """Create the directory given to `flag`, with its parents; IoError if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(f"{flag} {path}: cannot create directory: {e.strerror}") from e
    return out


def _output_file(path, flag: str) -> Path:
    """The file path given to `flag`, its directory created as _output_dir does."""
    out = Path(path)
    _output_dir(out.parent, flag)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radstack",
        description="Closed-loop motion planning stack: scenario generation, "
        "simulation, vocabulary clustering, plan-head training, benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen-scenarios", help="generate deterministic synthetic scenarios")
    p.add_argument("--kind", required=True, choices=SCENARIO_KINDS)
    p.add_argument("--count", type=_count, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("run", help="run one closed-loop episode")
    p.add_argument("--scenario", required=True)
    p.add_argument("--planner", required=True, choices=[k.replace("_", "-") for k in PLANNER_KINDS])
    p.add_argument("--config", default=None)
    p.add_argument("--log", default=None, help="episode log output path")
    p.add_argument("--vocab", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--breakdowns", action="store_true", help="record every proposal's scores")

    p = sub.add_parser("cluster-vocab", help="cluster harvested ego trajectories")
    p.add_argument("--episodes", required=True, help="directory of episode logs")
    p.add_argument("--k", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--horizon-steps", type=_count, default=40)
    p.add_argument("--stride", type=_count, default=5)

    p = sub.add_parser("train-head", help="train the learned plan head")
    p.add_argument("--samples", required=True, help="directory of episode logs to harvest")
    p.add_argument("--vocab", required=True)
    p.add_argument("--epochs", type=_count, default=200)
    p.add_argument("--lr", type=_positive_float, default=1e-2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--stride", type=_count, default=5)

    p = sub.add_parser("bench", help="batch closed-loop evaluation and report")
    p.add_argument("--scenarios", required=True, help="directory of scenario files")
    p.add_argument("--planners", type=_names, required=True, help="comma-separated planner kinds")
    p.add_argument("--toggles", type=_names, default="full", help=f"comma-separated presets: {','.join(sorted(TOGGLE_PRESETS))}")
    p.add_argument("--report", required=True)
    p.add_argument("--format", default="structured", choices=REPORT_FORMATS)
    p.add_argument("--config", default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--logs-dir", default=None, help="also save per-episode logs here")

    p = sub.add_parser("render", help="render an episode log to SVG")
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "gen-scenarios": _cmd_gen_scenarios,
        "run": _cmd_run,
        "cluster-vocab": _cmd_cluster_vocab,
        "train-head": _cmd_train_head,
        "bench": _cmd_bench,
        "render": _cmd_render,
    }[args.command]
    try:
        return handler(args)
    except (RadstackError, ValueError, KeyError) as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return 1


def _cmd_gen_scenarios(args) -> int:
    out = _output_dir(args.out, "--out")
    seed0 = resolve_seed(args.seed)
    for i in range(args.count):
        seed = seed0 + i
        scenario = generate_synthetic_scenario(args.kind, seed)
        path = out / f"{args.kind}_{seed:04d}.json"
        save_scenario(scenario, path)
        print(path)
    return 0


def _load_run_context(args, kinds):
    """(planner config, sim config, vocabulary, model) of `run` and `bench`
    for planners of the given kinds: the --config file, with --vocab and
    --model taking precedence over its vocab_path and model_path."""
    doc, planner_cfg, sim_cfg = load_config(args.config) if args.config else build_configs({})
    if getattr(args, "breakdowns", False):
        sim_cfg = replace(sim_cfg, record_breakdowns=True)
    vocab = None
    vocab_path = args.vocab or doc.get("vocab_path")
    if vocab_path:
        vocab = load_vocabulary(vocab_path)
    model = None
    model_path = args.model or doc.get("model_path")
    if model_path:
        model = load_model(model_path)
    for kind in kinds:
        if kind in ("planhead", "hybrid") and model is None:
            raise RadstackError(f"missing config key 'model_path' (or --model) for planner {kind}")
    return planner_cfg, sim_cfg, vocab, model


def _cmd_run(args) -> int:
    kind = args.planner.replace("-", "_")
    scenario = load_scenario(args.scenario)
    planner_cfg, sim_cfg, vocab, model = _load_run_context(args, [kind])
    log_path = _output_file(args.log, "--log") if args.log else None
    planner = Planner(scenario, kind=kind, config=planner_cfg, vocabulary=vocab, model=model)
    log = run_episode(scenario, planner, sim_cfg)
    if log_path:
        save_episode_log(log, log_path)
    events = ", ".join(f"{name}@{tick}" for tick, name in log.events) or "none"
    print(f"planner={kind} ticks={len(log.records)} events: {events}")
    return 0


def _episode_logs(directory):
    paths = sorted(Path(directory).glob("*.jsonl"))
    if not paths:
        raise RadstackError(f"no episode logs (*.jsonl) found in {directory}")
    return [load_episode_log(p) for p in paths]


def _cmd_cluster_vocab(args) -> int:
    out = _output_file(args.out, "--out")
    logs = _episode_logs(args.episodes)
    samples = []
    for log in logs:
        samples.extend(slice_ego_windows(log.ego_states(), args.horizon_steps, args.stride))
    if len(samples) < args.k:
        raise RadstackError(
            f"harvested only {len(samples)} samples, need at least k={args.k}"
        )
    vocab = kmeans_cluster(samples, args.k, seed=resolve_seed(args.seed), dt=logs[0].dt)
    save_vocabulary(vocab, out)
    print(f"clustered {len(samples)} samples into K={vocab.K} prototypes -> {args.out}")
    return 0


def _cmd_train_head(args) -> int:
    out = _output_file(args.out, "--out")
    vocab = load_vocabulary(args.vocab)
    logs = _episode_logs(args.samples)
    samples = []
    for log in logs:
        ego_states = log.ego_states()
        agents_seq = [record_agents(rec) for rec in log.records]
        samples.extend(
            harvest_training_samples(log.scenario, ego_states, agents_seq, vocab.T, args.stride)
        )
    if not samples:
        raise RadstackError("no training samples could be harvested from the logs")
    seed = resolve_seed(args.seed)
    model = init_model(vocab, seed=seed)
    model, curve = train(model, samples, epochs=args.epochs, lr=args.lr)
    save_model(model, out)
    print(
        f"trained on {len(samples)} samples for {args.epochs} epochs: "
        f"loss {curve[0]:.4f} -> {curve[-1]:.4f} -> {args.out}"
    )
    return 0


def _cmd_bench(args) -> int:
    scenario_paths = sorted(Path(args.scenarios).glob("*.json"))
    if not scenario_paths:
        raise RadstackError(f"no scenario files (*.json) found in {args.scenarios}")
    items = [(p.stem, load_scenario(p)) for p in scenario_paths]
    planners = [k.replace("-", "_") for k in args.planners]
    planner_cfg, sim_cfg, vocab, model = _load_run_context(args, planners)

    report_path = _output_file(args.report, "--report")
    logs_dir = _output_dir(args.logs_dir, "--logs-dir") if args.logs_dir else None

    report = run_suite(
        items, planners, args.toggles, sim_cfg, planner_cfg,
        vocabulary=vocab, model=model, keep_logs=logs_dir is not None,
    )
    for (name, kind, toggle), log in report.logs.items():
        save_episode_log(log, logs_dir / f"{name}__{kind}__{toggle}.jsonl")
    emit_report(report, args.format, report_path)
    print(f"{len(report.rows)} rows -> {args.report}")
    return 0


def _cmd_render(args) -> int:
    out = _output_file(args.out, "--out")
    render_episode_svg(load_episode_log(args.log), out)
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
