"""Command-line orchestrator: generate, split, train, run, report.

One executable with subcommands. Every subcommand accepts ``--config
FILE`` (a JSON object of flag defaults, keyed by flag dest names);
precedence is built-in defaults, then config file, then explicit
flags. Exit codes: 0 success, 2 configuration problems (including bad
flags), 3 data problems, 4 transport problems, 5 internal errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .core import (
    Part,
    Scenario,
    SplitAssignment,
    dataset_hash,
    downsample,
    ingest_csv,
    split_dataset,
)
from .errors import (
    ConfigError,
    DataError,
    ImutraceError,
    ProviderError,
    TransportError,
)
from .evalreport import (
    BASELINE_KINDS,
    BASELINES,
    DEFAULT_TARGET_RATE_HZ,
    baseline_inputs,
    json_line,
    parse_report_jsonl,
    render_report,
    run_experiment,
    train_baseline,
    validate_run,
)
from .llm import ProviderConfig
from .prompting import PromptMode, TemplateSet
from .synth import GeneratorConfig, ZERO_NOISE, generate_dataset, uniform_counts
from .baselines.model_io import save_model, save_training_log

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRANSPORT = 4
EXIT_INTERNAL = 5


@contextmanager
def _reading(path: str, what: str, error: type[ImutraceError]):
    """``path`` open as UTF-8 text, less a leading byte-order mark (which
    Excel writes); a file that cannot be read or is not UTF-8 raises
    ``error`` naming ``what``. Line ends are left as they are, as the csv
    module asks, so a CR quoted in a CSV field reads back as CR."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def _load_windows(path: str):
    with _reading(path, "dataset", DataError) as fh:
        return ingest_csv(fh)


def _load_split(path: str) -> SplitAssignment:
    try:
        with _reading(path, "split file", DataError) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"split file {path} is not valid JSON: {exc}")
    if not isinstance(obj, dict) or not isinstance(obj.get("assignment"), dict):
        raise DataError(f"split file {path} must carry an 'assignment' object")
    return SplitAssignment.from_json_dict(obj["assignment"])


def _generate(args, seed: int):
    """The windows and manifest that the generator flags in ``args`` give."""
    cfg = GeneratorConfig(
        seed=seed,
        rate=args.rate,
        duration=args.duration,
        windows_per_group=args.windows_per_group,
    )
    # None keeps the per-scenario default profiles
    noise = {scenario: ZERO_NOISE for scenario in Scenario} if args.noise == "zero" else None
    return generate_dataset(cfg, uniform_counts(args.per_class), noise)


def _baseline_config(kind: str, **overrides):
    """``kind``'s default config with each override its config class has a
    field for; an override of None keeps the default."""
    config = BASELINES[kind].config
    fields = {f.name for f in dataclasses.fields(config)}
    return config(**{k: v for k, v in overrides.items() if k in fields and v is not None})


def _parse_modes(text: str) -> list[PromptMode]:
    if text.strip().lower() in ("", "none"):
        return []
    modes = []
    for token in text.split(","):
        token = token.strip().lower()
        try:
            modes.append(PromptMode(token))
        except ValueError:
            raise ConfigError(f"unknown prompt mode {token!r}, expected cot or do")
    return modes


def _parse_baselines(text: str) -> list[str]:
    if text.strip().lower() in ("", "none"):
        return []
    return [token.strip().lower() for token in text.split(",")]


# --------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    windows, manifest = _generate(args, args.seed)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        manifest = dict(manifest)
        manifest["dataset_sha256"] = dataset_hash(windows, out / "dataset.csv")
        (out / "manifest.json").write_text(json_line(manifest), encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write to output directory {out}: {exc}")
    if not windows:
        print("warning: generated an empty dataset (per-class 0)", file=sys.stderr)
    print(f"wrote {len(windows)} windows to {out / 'dataset.csv'}")
    per_scenario = {s.value: sum(1 for w in windows if w.scenario is s) for s in Scenario}
    print(f"per scenario: {per_scenario}")
    return EXIT_OK


def cmd_split(args) -> int:
    windows = _load_windows(args.data)
    split = split_dataset(windows, args.seed)
    obj = {"seed": args.seed, "assignment": split.to_json_dict()}
    try:
        Path(args.out).write_text(json_line(obj), encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write split file {args.out}: {exc}")
    counts = {part.value: n for part, n in split.counts().items()}
    print(f"wrote split of {len(windows)} windows to {args.out}")
    print(f"counts: {counts}")
    return EXIT_OK


def cmd_train(args) -> int:
    windows = _load_windows(args.data)
    split = _load_split(args.split)
    split.validate(windows)
    scenario = Scenario(args.scenario)
    train_ids = set(split.part_ids(Part.TRAIN))
    train_windows = [w for w in windows if w.id in train_ids and w.scenario is scenario]
    if not train_windows:
        raise DataError(f"no training windows for scenario {scenario.value!r}")

    cfg = _baseline_config(args.model, seed=args.seed, epochs=args.epochs)
    inputs = baseline_inputs(
        args.model, train_windows, lambda w: downsample(w, args.target_rate)
    )
    model = train_baseline(args.model, inputs, cfg)

    try:
        save_model(model, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write model file {args.out}: {exc}")
    if args.log is not None:
        if hasattr(model, "history"):
            try:
                save_training_log(model.history, args.log)
            except OSError as exc:
                raise ConfigError(f"cannot write training log {args.log}: {exc}")
        else:
            print(
                f"note: {args.model} has no per-epoch history, no log written",
                file=sys.stderr,
            )
    summary = {
        key: model.manifest[key]
        for key in ("train_accuracy", "oob_accuracy", "final_loss")
        if key in model.manifest
    }
    print(
        f"trained {args.model} on {len(train_windows)} {scenario.value} windows: {summary}"
    )
    print(f"wrote model to {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    if (args.data is None) == (args.per_class is None):
        raise ConfigError(
            "exactly one data source: pass --data CSV or --per-class N (generator)"
        )

    # vet all flag-level configuration before touching any data; the run
    # is live exactly when it names an endpoint
    provider_cfg = None
    modes = _parse_modes(args.modes)
    if (args.endpoint is None) != (args.model is None):
        raise ConfigError("--endpoint and --model each require the other")
    if args.endpoint is not None:
        provider_cfg = ProviderConfig(
            endpoint=args.endpoint,
            model=args.model,
            token_env=args.token_env,
            temperature=args.temperature,
            max_tokens=args.max_tokens,
            timeout_s=args.timeout,
            retries=args.retries,
            backoff_base_s=args.backoff,
            concurrency=args.concurrency,
        )
    baselines = _parse_baselines(args.baselines)
    configs = {kind: _baseline_config(kind, seed=args.seed) for kind in BASELINE_KINDS}
    validate_run(baselines, modes, configs)
    templates = (
        TemplateSet.load_default() if args.template is None else TemplateSet.from_dir(args.template)
    )

    manifest_extra: dict = {"baseline_seed": args.seed}
    if args.data is not None:
        windows = _load_windows(args.data)
        manifest_extra["data_source"] = {"kind": "file", "path": args.data}
    else:
        windows, generated = _generate(args, args.gen_seed)
        manifest_extra["data_source"] = {"kind": "generated", "generator": generated}
    if not windows:
        raise DataError("the dataset is empty; nothing to evaluate")

    if args.split is not None:
        split = _load_split(args.split)
    else:
        split = split_dataset(windows, args.split_seed)
        manifest_extra["split_seed"] = args.split_seed

    # run_experiment writes every output, into an --out it makes once its checks pass
    out = Path(args.out)
    try:
        report = run_experiment(
            windows,
            split,
            baselines=baselines,
            modes=modes,
            provider_cfg=provider_cfg,
            configs=configs,
            target_rate_hz=args.target_rate,
            templates=templates,
            manifest_extra=manifest_extra,
            out=out,
            write_dataset=args.data is None,
        )
    except OSError as exc:
        raise ConfigError(f"cannot write run outputs to {out}: {exc}")

    print(render_report(report, "text"), end="")
    print(f"wrote report to {out}")

    transport_skips = [c for c in report.cells.values() if c.skipped and c.n_failures]
    if transport_skips:
        print(
            f"warning: {len(transport_skips)} cell(s) skipped on provider failures",
            file=sys.stderr,
        )
        return EXIT_TRANSPORT
    return EXIT_OK


def cmd_report(args) -> int:
    with _reading(args.input, "report", DataError) as fh:
        text = fh.read()
    report = parse_report_jsonl(text)
    rendered = render_report(report, args.format)
    if args.out is not None:
        try:
            Path(args.out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write report {args.out}: {exc}")
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(rendered, end="")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="imutrace",
        description="Synthetic IMU trajectory recognition testbed.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    subparsers: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name,
            help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        p.add_argument(
            "--config",
            default=None,
            help="JSON file of flag defaults (dest names); explicit flags override",
        )
        subparsers[name] = p
        return p

    def add_generator_flags(p: argparse.ArgumentParser) -> None:
        # the defaults are GeneratorConfig's own
        gen = GeneratorConfig
        p.add_argument("--rate", type=float, default=gen.rate, help="generator sample rate, Hz")
        p.add_argument("--duration", type=float, default=gen.duration, help="generator window length, s")
        p.add_argument(
            "--windows-per-group",
            type=int,
            default=gen.windows_per_group,
            help="generator windows per recording group",
        )
        p.add_argument(
            "--noise", choices=["default", "zero"], default="default", help="generator noise profiles"
        )

    g = add("generate", "synthesize a labeled dataset")
    g.add_argument("--out", default="dataset", help="output directory")
    g.add_argument("--per-class", type=int, default=10, help="windows per (label, scenario)")
    g.add_argument("--seed", type=int, default=0, help="generator seed")
    add_generator_flags(g)
    g.set_defaults(func=cmd_generate)

    s = add("split", "assign windows to train/validation/seen/unseen parts")
    s.add_argument("--data", required=True, help="dataset CSV")
    s.add_argument("--seed", type=int, default=0, help="split seed")
    s.add_argument("--out", default="split.json", help="output split file")
    s.set_defaults(func=cmd_split)

    t = add("train", "train one baseline on the Train part of one scenario")
    t.add_argument("--data", required=True, help="dataset CSV")
    t.add_argument("--split", required=True, help="split JSON from the split command")
    t.add_argument("--model", choices=list(BASELINE_KINDS), required=True, help="baseline kind")
    t.add_argument("--scenario", choices=[s.value for s in Scenario], default="indoor")
    t.add_argument("--out", default="model.json", help="output model file")
    t.add_argument("--log", default=None, help="per-epoch CSV log (neural nets)")
    t.add_argument("--seed", type=int, default=0, help="training seed")
    t.add_argument("--epochs", type=int, default=None, help="override epochs (neural nets)")
    t.add_argument(
        "--target-rate",
        type=float,
        default=DEFAULT_TARGET_RATE_HZ,
        help="downsampled rate for neural-net inputs, Hz",
    )
    t.set_defaults(func=cmd_train)

    r = add("run", "train baselines, run prompt modes, write reports")
    r.add_argument("--data", default=None, help="dataset CSV (or use --per-class)")
    r.add_argument("--split", default=None, help="split JSON; computed when omitted")
    r.add_argument("--split-seed", type=int, default=0, help="seed when computing the split")
    r.add_argument("--per-class", type=int, default=None, help="generate N windows per (label, scenario)")
    r.add_argument("--gen-seed", type=int, default=0, help="generator seed")
    add_generator_flags(r)
    r.add_argument("--out", default="run", help="output directory")
    r.add_argument("--modes", default="cot,do", help="comma list of prompt modes (cot, do) or none")
    r.add_argument(
        "--baselines",
        default=",".join(BASELINE_KINDS),
        help="comma list of baselines or none",
    )
    r.add_argument("--seed", type=int, default=0, help="baseline training seed")
    r.add_argument(
        "--target-rate",
        type=float,
        default=DEFAULT_TARGET_RATE_HZ,
        help="downsampled rate fed to prompts and neural nets, Hz",
    )
    r.add_argument("--template", default=None, help="directory overriding the prompt templates")
    r.add_argument("--endpoint", default=None, help="live provider: chat-completion URL; the mock when omitted")
    r.add_argument("--model", default=None, help="live provider: model id")
    # the live-provider defaults are ProviderConfig's own; none is built
    # here, so an offline run still never imports the HTTP client
    live = ProviderConfig
    r.add_argument("--token-env", default=live.token_env, help="live provider: auth token env var")
    r.add_argument("--temperature", type=float, default=live.temperature, help="live provider: temperature")
    r.add_argument("--max-tokens", type=int, default=live.max_tokens, help="live provider: response token cap")
    r.add_argument("--timeout", type=float, default=live.timeout_s, help="live provider: request timeout, s")
    r.add_argument("--retries", type=int, default=live.retries, help="live provider: max retries")
    r.add_argument("--backoff", type=float, default=live.backoff_base_s, help="live provider: backoff base, s")
    r.add_argument("--concurrency", type=int, default=live.concurrency, help="live provider: concurrent requests")
    r.set_defaults(func=cmd_run)

    p = add("report", "re-render a JSONL report")
    p.add_argument("--input", required=True, help="report.jsonl path")
    p.add_argument("--format", choices=["text", "jsonl"], default="text")
    p.add_argument("--out", default=None, help="output file; stdout when omitted")
    p.set_defaults(func=cmd_report)

    return parser, subparsers


def _apply_config_file(
    parser: argparse.ArgumentParser,
    subparsers: dict[str, argparse.ArgumentParser],
    argv: list[str],
) -> argparse.Namespace:
    probe, _ = parser.parse_known_args(argv)
    config_path = getattr(probe, "config", None)
    if config_path:
        try:
            with _reading(config_path, "config file", ConfigError) as fh:
                config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}")
        if not isinstance(config, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        sub = subparsers[probe.command]
        known = {action.dest for action in sub._actions}
        unknown = sorted(set(config) - known)
        if unknown:
            raise ConfigError(
                f"config file {config_path} sets unknown keys for "
                f"{probe.command!r}: {', '.join(unknown)}"
            )
        # null keeps the flag's built-in default
        config = {dest: value for dest, value in config.items() if value is not None}
        # argparse checks choices only on the command line, not on defaults
        for action in sub._actions:
            value = config.get(action.dest)
            if action.choices is not None and action.dest in config and value not in action.choices:
                raise ConfigError(
                    f"config file {config_path} sets {action.dest} to {value!r}, "
                    f"expected one of {', '.join(action.choices)}"
                )
        # argparse runs a string default through the flag's type, so every
        # value goes on as text: a string as is, anything else as its JSON
        sub.set_defaults(
            **{
                dest: value if isinstance(value, str) else json.dumps(value)
                for dest, value in config.items()
            }
        )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, subparsers = build_parser()
    try:
        args = _apply_config_file(parser, subparsers, list(argv))
        return args.func(args)
    except ConfigError as exc:
        print(f"imutrace: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"imutrace: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TransportError, ProviderError) as exc:
        print(f"imutrace: transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except ImutraceError as exc:
        print(f"imutrace: error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
