"""`palette` command-line interface.

Exit codes: 0 success, 1 usage error (the subcommand's usage on stderr), 2 runtime
failure (structured JSON {code, message, context} on stderr). Output files
are written atomically and all float output uses 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .common import (CONTINENTS, atomic_write_text, bad_file, bad_line, dumps_canonical, iter_jsonl, round9, row_id,
                     unreadable, write_jsonl)
from .errors import PaletteError, TooLong
from . import agent_pipeline, align_trainer, data_synth, gate_router, merge_engine, metrics
from .backends import LocalReference, RemoteChat, ScriptedMock
from .reference_model import ModelConfig, init_model
from .tensor_store import load_checkpoint, save_checkpoint


class _UsageError(Exception):
    def __init__(self, message: str, usage: str | None = None):
        super().__init__(message)
        self.usage = usage  # the refusing parser's usage; None: that of the subcommand parsed


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.set_defaults(usage=self.format_usage)  # a subcommand's default overrides its parent's

    def error(self, message):
        raise _UsageError(message, self.format_usage())


def _expert_paths(pairs: list[str]) -> dict[str, str]:
    """``--expert LABEL=PATH`` flags as {label: path}, in the order given.
    A label given twice is schema_mismatch; no file is read."""
    split = [pair.partition("=") for pair in pairs]
    for pair, (label, sep, path) in zip(pairs, split):
        if not sep or not label or not path:
            raise _UsageError(f"--expert must look like LABEL=PATH, got {pair!r}")
    labels = [label for label, _, _ in split]
    if len(set(labels)) != len(labels):
        raise PaletteError("schema_mismatch", f"expert labels must be unique, got {labels}")
    return {label: path for label, _, path in split}


# command -> (its mode flag, {mode: the flags that only this mode reads})
_MODES = {
    "eval": ("--meta-backend", {
        "local": ("--model", "--expert", "--gate", "--gate-mode", "--no-moerges"),
        "remote": ("--url", "--model-name"),
        "mock": ("--transcript",),
    }),
    "synth run": ("--backend", {"remote": ("--url", "--model-name"), "mock": ("--transcript",)}),
    "merge": ("--method", {
        "task": ("--coeff",),
        "ties": ("--density", "--scale"),
        "stock": (),
        "moerges": ("--gate",),
    }),
}
_REQUIRED = ("--model", "--url", "--transcript")  # by each mode that reads them


def _check_mode(args, command: str) -> None:
    """Refuse a flag of ``command`` given outside the mode that reads it, and a required one left out."""
    mode_flag, modes = _MODES[command]
    mode = getattr(args, mode_flag[2:].replace("-", "_"))
    for other, flags in modes.items():
        for flag in flags:
            value = getattr(args, flag[2:].replace("-", "_"))
            given = value is not None and value is not False and value != []
            if given and other != mode:
                raise _UsageError(f"{flag} applies only to {mode_flag} {other}")
            if not given and other == mode and flag in _REQUIRED:
                raise _UsageError(f"{flag} is required with {mode_flag} {mode}")


def _strings(values) -> bool:
    return all(isinstance(v, str) for v in values)


# What a transcript entry may hold: key -> (what it must be, its test); a missing key or null is allowed.
_MOCK_FIELDS = {
    "default": ("a string", lambda v: isinstance(v, str)),
    "exact": ("an object of strings", lambda v: isinstance(v, dict) and _strings(v.values())),
    "script": ("a list of strings", lambda v: isinstance(v, list) and _strings(v)),
    "echo": ("a boolean", lambda v: isinstance(v, bool)),
}


def _mock_from_spec(spec, label: str, path) -> ScriptedMock:
    """The mock one transcript entry describes; bad_input naming ``path`` where the entry is malformed."""
    if not isinstance(spec, dict):
        raise bad_file(path, f"transcript entry {label!r} must be a JSON object")
    for key, (kind, ok) in _MOCK_FIELDS.items():
        if spec.get(key) is not None and not ok(spec[key]):
            raise bad_file(path, f"{key!r} of transcript entry {label!r} must be {kind}")
    return ScriptedMock(
        default=spec.get("default"),
        exact=spec.get("exact"),
        script=spec.get("script"),
        echo=bool(spec.get("echo", False)),
        label=label,
    )


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise unreadable(path, exc) from exc
    except ValueError as exc:  # also bytes that are not UTF-8
        raise bad_file(path, f"not valid JSON: {exc}") from exc


def _checked(make, **kwargs):
    """``make(**kwargs)``, with its ValueError for a number out of range as a usage error."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_prompts(path) -> dict[str, str]:
    prompts = _load_json(path)
    if isinstance(prompts, list) and len(prompts) == len(CONTINENTS):
        prompts = dict(zip(CONTINENTS, prompts))
    if not isinstance(prompts, dict):
        raise bad_file(path, f"expected {{continent: prompt}} or {len(CONTINENTS)} prompts")
    for c in CONTINENTS:
        if not isinstance(prompts.get(c), str):
            raise bad_file(path, f"the prompt for {c} is missing or not a string", continent=c)
    return prompts


_MODEL_FLAGS = ("d_model", "n_layers", "n_heads", "max_seq", "seed")  # the ModelConfig fields `model init` sets

# metrics subcommand -> (its function, the flags of its two arrays, its output key)
_ARRAY_METRICS = {
    "kl": (metrics.kl, ("p", "q"), "kl_bits"),
    "salign": (metrics.alignment_score, ("gen", "gold"), "s_align"),
    "pearson": (metrics.pearson, ("x", "y"), "pearson_r"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="palette", description="Continent-expert merging, routing, alignment, and evaluation toolkit")
    parser.add_argument("--version", action="version", version=f"palette {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    backend_flags = argparse.ArgumentParser(add_help=False)  # the chat backends of eval and synth run
    backend_flags.add_argument("--url", help="chat endpoint base URL (remote backend)")
    backend_flags.add_argument("--model-name", help="remote model name (default: default)")
    backend_flags.add_argument("--transcript", help="JSON transcript file (mock backend)")

    p = sub.add_parser("model", help="reference-model utilities")
    p.set_defaults(run=_cmd_model)
    msub = p.add_subparsers(dest="model_command", required=True)
    mi = msub.add_parser("init", help="initialize a seeded reference model checkpoint")
    for name in _MODEL_FLAGS:
        mi.add_argument(f"--{name.replace('_', '-')}", type=int, default=getattr(ModelConfig, name))
    mi.add_argument("-o", "--output", required=True)

    p = sub.add_parser("merge", help="merge expert checkpoints onto a base")
    p.set_defaults(run=_cmd_merge)
    p.add_argument("--method", choices=("task", "ties", "stock", "moerges"), required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--expert", action="append", required=True, metavar="LABEL=PATH")
    p.add_argument("--coeff", action="append", type=float, default=None)
    p.add_argument("--density", type=float)
    p.add_argument("--scale", type=float, help=f"ties scale (default: {merge_engine.DEFAULT_SCALE})")
    p.add_argument("--gate", help="comma-separated gate weights, one per expert")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("gate", help="gate initialization and routing")
    p.set_defaults(run=_cmd_gate)
    gsub = p.add_subparsers(dest="gate_command", required=True)
    gi = gsub.add_parser("init", help="initialize the gate from system prompts")
    gi.add_argument("--model", required=True)
    gi.add_argument("--prompts", help="JSON file: {continent: prompt} or a 5-array")
    gi.add_argument("-o", "--output", required=True)
    gr = gsub.add_parser("route", help="route a prompt to expert weights")
    gr.add_argument("--model", required=True)
    gr.add_argument("--gate", required=True)
    gr.add_argument("--prompt", required=True)
    gr.add_argument("--temperature", type=float, default=gate_router.TEMPERATURE)

    p = sub.add_parser("align", help="preference-train the reference model")
    p.set_defaults(run=_cmd_align, score=align_trainer.TrainConfig.score)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=align_trainer.TrainConfig.lam)
    p.add_argument("--lr", type=float, default=align_trainer.TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=align_trainer.TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=align_trainer.TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=align_trainer.TrainConfig.seed)
    scores = p.add_mutually_exclusive_group()  # the contrastive term's sequence score; default: mean
    scores.add_argument("--true-odds", dest="score", action="store_const", const="odds")
    scores.add_argument("--raw-sums", dest="score", action="store_const", const="sum", help="unnormalized logprob ratios")
    p.add_argument("--continent", help="train only on records tagged with this continent")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report")

    p = sub.add_parser("eval", parents=[backend_flags], help="evaluate a country on opinion items")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--country", required=True)
    p.add_argument("--items", required=True)
    p.add_argument("--meta-backend", choices=("local", "remote", "mock"), required=True)
    p.add_argument("--model", help="base model checkpoint (local backend)")
    p.add_argument("--expert", action="append", default=[], metavar="CONTINENT=PATH")
    p.add_argument("--gate", help="gate checkpoint (local backend)")
    p.add_argument("--gate-mode", choices=agent_pipeline.GATE_MODES, help="default: " + agent_pipeline.DEFAULT_GATE_MODE)
    ablations = p.add_mutually_exclusive_group()  # with no drafts there is nothing to regulate
    ablations.add_argument("--no-draft", action="store_true")
    ablations.add_argument("--no-regulate", action="store_true")
    p.add_argument("--no-moerges", action="store_true")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("synth", help="dialogue synthesis pipeline")
    p.set_defaults(run=_cmd_synth)
    ssub = p.add_subparsers(dest="synth_command", required=True)
    sr = ssub.add_parser("run", parents=[backend_flags], help="run the four-step synthesis loop")
    sr.add_argument("--queries", required=True)
    sr.add_argument("--backend", choices=("remote", "mock"), required=True)
    sr.add_argument("--max-rounds", type=int, default=data_synth.DEFAULT_MAX_ROUNDS)
    sr.add_argument("--out", required=True)
    sp = ssub.add_parser("pairs", help="assemble preference pairs from synthesis records")
    sp.add_argument("--records", required=True, help="synthesis out dir or one records_*.jsonl")
    sp.add_argument("-o", "--output", required=True)
    si = ssub.add_parser("import-prism", help="convert a question CSV/JSONL into query JSONL")
    si.add_argument("--input", required=True)
    si.add_argument("-o", "--output", required=True)

    p = sub.add_parser("metrics", help="closed-form metric computations")
    p.set_defaults(run=_cmd_metrics)
    msub2 = p.add_subparsers(dest="metrics_command", required=True)
    for name, (_, flags, _) in _ARRAY_METRICS.items():
        ma = msub2.add_parser(name)
        for flag in flags:
            ma.add_argument(f"--{flag}", required=True, help="JSON array")
    mn = msub2.add_parser("semantic")
    mn.add_argument("--url", required=True)
    mn.add_argument("--gold", required=True)
    mn.add_argument("--llm", required=True)

    return parser


def _cmd_model(args) -> int:
    cfg = ModelConfig(**{name: getattr(args, name) for name in _MODEL_FLAGS})
    save_checkpoint(init_model(cfg), args.output)
    print(f"wrote model checkpoint to {args.output}")
    return 0


def _cmd_merge(args) -> int:
    _check_mode(args, "merge")
    paths = _expert_paths(args.expert)

    def load():  # base and experts, read only once every flag and value is checked
        return load_checkpoint(args.base), [load_checkpoint(path) for path in paths.values()]
    if args.method == "task":
        coeffs = merge_engine.check_coeffs(args.coeff or [1.0] * len(paths), len(paths))
        merged = merge_engine.task_arithmetic(*load(), coeffs)
    elif args.method == "ties":
        if args.density is None:
            raise PaletteError("bad_density", "ties merge requires a density in (0, 1]")
        scale = merge_engine.DEFAULT_SCALE if args.scale is None else args.scale
        merge_engine.check_ties(args.density, scale)
        merged = merge_engine.ties_merge(*load(), args.density, scale)
    elif args.method == "stock":
        merge_engine.check_stock(len(paths))
        merged = merge_engine.model_stock(*load())
    else:
        if args.gate is None:
            raise PaletteError("gate_dimension_mismatch", "moerges merge requires a gate vector")
        try:
            gate = [float(x) for x in args.gate.split(",")]
        except ValueError:
            raise _UsageError(f"--gate must be comma-separated numbers, got {args.gate!r}") from None
        gate = merge_engine.check_gate(gate, len(paths))
        merged = merge_engine.moerges_fuse(*load(), gate)
    save_checkpoint(merged, args.output)
    print(f"wrote merged checkpoint to {args.output}")
    return 0


def _cmd_gate(args) -> int:
    if args.gate_command == "init":
        model = load_checkpoint(args.model)
        prompts = _load_prompts(args.prompts) if args.prompts else None
        gate = gate_router.init_gate(model, prompts)
        gate_router.save_gate(gate, args.output)
        print(f"wrote gate to {args.output}")
        return 0
    if not args.temperature > 0:  # also NaN
        raise _UsageError(f"--temperature must be > 0, got {args.temperature}")
    model = load_checkpoint(args.model)
    gate = gate_router.load_gate(args.gate, model)
    weights = gate_router.route_prompt(model, gate, args.prompt, args.temperature)
    print(dumps_canonical(dict(zip(CONTINENTS, weights)), indent=None))
    return 0


def _cmd_align(args) -> int:
    cfg = _checked(
        align_trainer.TrainConfig,
        lam=args.lam,
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        score=args.score,
    )
    params = load_checkpoint(args.model)
    dataset = align_trainer.load_records_jsonl(args.data)
    kept = [i for i, r in enumerate(dataset) if not args.continent or r.continent == args.continent]
    if args.continent and not kept:
        raise PaletteError("empty_dataset", f"no record in {args.data} has continent {args.continent!r}",
                           path=str(args.data), continent=args.continent)
    try:
        trained, report = align_trainer.train(params, [dataset[i] for i in kept], cfg)
    except TooLong as exc:  # name the record by its index in the whole --data set
        exc.context["record"] = kept[exc.context["record"]]
        raise
    save_checkpoint(trained, args.output)
    if args.report:
        atomic_write_text(args.report, dumps_canonical(report.to_dict()) + "\n")
    print(
        f"trained {len(kept)} records for {cfg.epochs} epochs; "
        f"margin {round9(report.initial_margin):.9g} -> {round9(report.final_margin):.9g}"
    )
    return 0


def _cmd_eval(args) -> int:
    _check_mode(args, "eval")
    if not args.country:
        raise _UsageError("--country must be non-empty")
    if args.meta_backend == "local":
        paths = _expert_paths(args.expert)
        unknown = sorted(set(paths) - set(CONTINENTS))
        if unknown:
            raise _UsageError(f"--expert labels must be continents {CONTINENTS}, got {unknown}")
        if args.no_moerges and (args.gate is not None or args.gate_mode is not None):
            raise _UsageError("--gate and --gate-mode apply only without --no-moerges")
        if not args.no_moerges and (not args.gate or len(paths) != len(CONTINENTS)):
            raise _UsageError("local eval needs --gate and all five --expert CONTINENT=PATH, or --no-moerges")
    items = agent_pipeline.load_opinion_items(args.items, args.country)
    if args.meta_backend == "mock":
        spec = _load_json(args.transcript)
        if not isinstance(spec, dict):
            raise bad_file(args.transcript, "a transcript must be a JSON object")
        entries = spec.get("agents", {})
        if not isinstance(entries, dict) or not all(isinstance(e, dict) for e in entries.values()):
            raise bad_file(args.transcript, "'agents' must be an object of objects")
        agents = {
            c: _mock_from_spec(entries.get(c, {"default": f"resp-{c}"}), c, args.transcript)
            for c in CONTINENTS
        }
        meta = _mock_from_spec(spec.get("meta", {}), "meta", args.transcript)
    elif args.meta_backend == "remote":
        agents = {
            c: RemoteChat(args.url, args.model_name, label=c) for c in CONTINENTS
        }
        meta = RemoteChat(args.url, args.model_name, label="meta")
    else:
        base = load_checkpoint(args.model)
        experts = {c: load_checkpoint(path) for c, path in paths.items()}
        gate = gate_router.load_gate(args.gate, base) if args.gate else None
        agents = {
            c: LocalReference(experts.get(c, base), label=c) for c in CONTINENTS
        }
        meta = agent_pipeline.FusedLocalMeta(
            base, experts or {c: base for c in CONTINENTS}, gate,
            mode=args.gate_mode or agent_pipeline.DEFAULT_GATE_MODE, no_fuse=args.no_moerges,
        )
    config = agent_pipeline.PipelineConfig(
        agents=agents,
        meta=meta,
        no_draft=args.no_draft,
        no_regulate=args.no_regulate,
    )
    report = agent_pipeline.evaluate_country(config, items, args.country)
    atomic_write_text(args.output, report.to_json() + "\n")
    r = "undefined" if report.pearson_r is None else f"{round9(report.pearson_r):.9g}"
    print(
        f"{args.country}: mean S_align {round9(report.mean_s_align):.9g} "
        f"over {len(items)} items, pearson {r}"
    )
    return 0


def _cmd_synth(args) -> int:
    if args.synth_command == "run":
        _check_mode(args, "synth run")
        cfg = _checked(data_synth.SynthConfig, backend=None, max_rounds=args.max_rounds)  # before any read
        queries, seen = [], {}
        for index, row in iter_jsonl(args.queries, required=("query",)):
            if not isinstance(row["query"], str) or not row["query"]:
                raise bad_line(args.queries, index, '"query" must be a non-empty string')
            queries.append({"id": row_id(args.queries, index, row, seen), "query": row["query"]})
        if args.backend == "mock":
            cfg.backend = _mock_from_spec(_load_json(args.transcript), "synth", args.transcript)
        else:
            cfg.backend = RemoteChat(args.url, args.model_name, label="synth")
        records = data_synth.run_synthesis(cfg, queries, args.out)
        approved = sum(1 for r in records if r.approved)
        print(f"synthesized {len(records)} records ({approved} approved) into {args.out}")
        return 0
    if args.synth_command == "pairs":
        records = data_synth.load_synth_records(args.records)
        if not records:
            raise PaletteError("empty_dataset", f"no synthesis record in {args.records}", path=str(args.records))
        pairs = data_synth.build_preference_pairs(data_synth.group_records(records))
        align_trainer.save_records_jsonl(pairs, args.output)
        print(f"wrote {len(pairs)} preference records to {args.output}")
        return 0
    rows = data_synth.import_prism(args.input)
    write_jsonl(args.output, rows)
    print(f"imported {len(rows)} queries to {args.output}")
    return 0


def _numbers(flag: str, text: str) -> list:
    """The JSON array of numbers given to ``flag``; anything else is a usage error."""
    try:
        values = json.loads(text)
    except ValueError:
        values = None
    if isinstance(values, list) and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return values
    raise _UsageError(f"{flag} must be a JSON array of numbers, got {text!r}")


def _cmd_metrics(args) -> int:
    if args.metrics_command == "semantic":
        key, value = "s_semantic", metrics.semantic_score(args.url, args.gold, args.llm)
    else:
        fn, flags, key = _ARRAY_METRICS[args.metrics_command]
        a, b = (_numbers(f"--{flag}", getattr(args, flag)) for flag in flags)
        value = _checked(lambda: fn(a, b))
    print(dumps_canonical({key: value}, indent=None))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise _UsageError(f"unrecognized arguments: {' '.join(extra)}")
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(exc.usage or args.usage(), end="", file=sys.stderr)
        return 1
    except Exception as exc:  # no stack traces on the CLI surface
        if isinstance(exc, PaletteError):
            error = {"code": exc.code, "message": str(exc), "context": exc.context}
        else:
            error = {"code": "internal", "message": f"{type(exc).__name__}: {exc}", "context": {}}
        print(json.dumps(error, sort_keys=True, default=str), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
