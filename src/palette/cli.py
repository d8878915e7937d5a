"""`palette` command-line interface.

Exit codes: 0 success, 1 usage error (usage text on stderr), 2 runtime
failure (structured JSON {code, message, context} on stderr). Output files
are written atomically and all float output uses 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from . import __version__
from .common import CONTINENTS, atomic_write_text, dumps_canonical, iter_jsonl, round9, write_jsonl
from .errors import PaletteError
from . import agent_pipeline, align_trainer, data_synth, gate_router, merge_engine, metrics
from .backends import LocalReference, RemoteChat, ScriptedMock
from .reference_model import ModelConfig, init_model
from .tensor_store import load_checkpoint, save_checkpoint


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _git_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _parse_experts(pairs: list[str]) -> list[tuple[str, object]]:
    experts = []
    for pair in pairs:
        label, sep, path = pair.partition("=")
        if not sep or not label or not path:
            raise _UsageError(f"--expert must look like LABEL=PATH, got {pair!r}")
        experts.append((label, load_checkpoint(path)))
    return experts


def _mock_from_spec(spec: dict, label: str) -> ScriptedMock:
    return ScriptedMock(
        default=spec.get("default"),
        exact=spec.get("exact"),
        script=spec.get("script"),
        echo=bool(spec.get("echo", False)),
        label=label,
    )


def _load_transcript(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def build_parser() -> _Parser:
    parser = _Parser(prog="palette", description="Continent-expert merging, routing, alignment, and evaluation toolkit")
    parser.add_argument("--version", action="version", version=f"palette {__version__} ({_git_hash()})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="reference-model utilities")
    msub = p.add_subparsers(dest="model_command", required=True)
    mi = msub.add_parser("init", help="initialize a seeded reference model checkpoint")
    mi.add_argument("--d-model", type=int, default=64)
    mi.add_argument("--n-layers", type=int, default=2)
    mi.add_argument("--n-heads", type=int, default=4)
    mi.add_argument("--max-seq", type=int, default=256)
    mi.add_argument("--seed", type=int, default=42)
    mi.add_argument("-o", "--output", required=True)

    p = sub.add_parser("merge", help="merge expert checkpoints onto a base")
    p.add_argument("--method", choices=merge_engine.MERGE_METHODS, required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--expert", action="append", default=[], metavar="LABEL=PATH")
    p.add_argument("--coeff", action="append", type=float, default=None)
    p.add_argument("--density", type=float)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--gate", help="comma-separated gate weights, one per expert")
    p.add_argument("--ffn-pattern", default="*.ffn.*")
    p.add_argument("--delta-mode", action="store_true")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("gate", help="gate initialization and routing")
    gsub = p.add_subparsers(dest="gate_command", required=True)
    gi = gsub.add_parser("init", help="initialize the gate from system prompts")
    gi.add_argument("--model", required=True)
    gi.add_argument("--prompts", help="JSON file: {continent: prompt} or a 5-array")
    gi.add_argument("--raw", action="store_true", help="keep unnormalized columns")
    gi.add_argument("-o", "--output", required=True)
    gr = gsub.add_parser("route", help="route a prompt to expert weights")
    gr.add_argument("--model", required=True)
    gr.add_argument("--gate", required=True)
    gr.add_argument("--prompt", required=True)
    gr.add_argument("--temperature", type=float, default=1.0)

    p = sub.add_parser("align", help="preference-train the reference model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--lr", type=float, default=5e-5)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--true-odds", action="store_true")
    p.add_argument("--raw-sums", action="store_true", help="unnormalized logprob ratios")
    p.add_argument("--continent", help="train only on records tagged with this continent")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report")

    p = sub.add_parser("eval", help="evaluate a country on opinion items")
    p.add_argument("--country", required=True)
    p.add_argument("--items", required=True)
    p.add_argument("--meta-backend", choices=("local", "remote", "mock"), required=True)
    p.add_argument("--model", help="base model checkpoint (local backend)")
    p.add_argument("--expert", action="append", default=[], metavar="CONTINENT=PATH")
    p.add_argument("--gate", help="gate checkpoint (local backend)")
    p.add_argument("--gate-mode", choices=("per-request", "per-country"), default="per-request")
    p.add_argument("--url", help="chat endpoint base URL (remote backend)")
    p.add_argument("--model-name", default="default", help="remote model name")
    p.add_argument("--transcript", help="JSON transcript file (mock backend)")
    p.add_argument("--no-draft", action="store_true")
    p.add_argument("--no-regulate", action="store_true")
    p.add_argument("--no-moerges", action="store_true")
    p.add_argument("--pearson-mode", choices=("pooled", "per_question_mean"), default="pooled")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("synth", help="dialogue synthesis pipeline")
    ssub = p.add_subparsers(dest="synth_command", required=True)
    sr = ssub.add_parser("run", help="run the four-step synthesis loop")
    sr.add_argument("--queries", required=True)
    sr.add_argument("--backend", choices=("remote", "mock", "local"), required=True)
    sr.add_argument("--url")
    sr.add_argument("--model-name", default="default")
    sr.add_argument("--model", help="reference model checkpoint (local backend)")
    sr.add_argument("--transcript", help="JSON transcript file (mock backend)")
    sr.add_argument("--max-rounds", type=int, default=3)
    sr.add_argument("--out", required=True)
    sp = ssub.add_parser("pairs", help="assemble preference pairs from synthesis records")
    sp.add_argument("--records", required=True, help="synthesis out dir or one records_*.jsonl")
    sp.add_argument("-o", "--output", required=True)
    si = ssub.add_parser("import-prism", help="convert a question CSV/JSONL into query JSONL")
    si.add_argument("--input", required=True)
    si.add_argument("-o", "--output", required=True)

    p = sub.add_parser("metrics", help="closed-form metric computations")
    msub2 = p.add_subparsers(dest="metrics_command", required=True)
    mk = msub2.add_parser("kl")
    mk.add_argument("--p", required=True, help="JSON array")
    mk.add_argument("--q", required=True, help="JSON array")
    ms = msub2.add_parser("salign")
    ms.add_argument("--gen", required=True, help="JSON array")
    ms.add_argument("--gold", required=True, help="JSON array")
    mp = msub2.add_parser("pearson")
    mp.add_argument("--x", required=True, help="JSON array")
    mp.add_argument("--y", required=True, help="JSON array")
    mn = msub2.add_parser("semantic")
    mn.add_argument("--url", required=True)
    mn.add_argument("--gold", required=True)
    mn.add_argument("--llm", required=True)

    return parser


def _cmd_model(args) -> int:
    cfg = ModelConfig(
        d_model=args.d_model,
        n_layers=args.n_layers,
        n_heads=args.n_heads,
        max_seq=args.max_seq,
        seed=args.seed,
    )
    save_checkpoint(init_model(cfg), args.output)
    print(f"wrote model checkpoint to {args.output}")
    return 0


def _cmd_merge(args) -> int:
    if not args.expert:
        raise _UsageError("at least one --expert LABEL=PATH is required")
    gate = None
    if args.gate is not None:
        gate = [float(x) for x in args.gate.split(",")]
    request = merge_engine.MergeRequest(
        base=load_checkpoint(args.base),
        experts=_parse_experts(args.expert),
        method=args.method,
        coeffs=args.coeff,
        density=args.density,
        scale=args.scale,
        gate=gate,
        ffn_pattern=args.ffn_pattern,
        delta_mode=args.delta_mode,
    )
    save_checkpoint(merge_engine.run_merge(request), args.output)
    print(f"wrote merged checkpoint to {args.output}")
    return 0


def _cmd_gate(args) -> int:
    if args.gate_command == "init":
        model = load_checkpoint(args.model)
        prompts = None
        if args.prompts:
            with open(args.prompts, encoding="utf-8") as fh:
                prompts = json.load(fh)
        gate = gate_router.init_gate(model, prompts, normalize=not args.raw)
        gate_router.save_gate(gate, args.output)
        print(f"wrote gate to {args.output}")
        return 0
    model = load_checkpoint(args.model)
    gate = gate_router.load_gate(args.gate)
    weights = gate_router.route_prompt(model, gate, args.prompt, args.temperature)
    print(gate_router.format_weights(weights))
    return 0


def _cmd_align(args) -> int:
    params = load_checkpoint(args.model)
    dataset = align_trainer.load_records_jsonl(args.data)
    if args.continent:
        dataset = [r for r in dataset if r.continent == args.continent]
    cfg = align_trainer.TrainConfig(
        lam=args.lam,
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        true_odds=args.true_odds,
        length_normalize=not args.raw_sums,
    )
    trained, report = align_trainer.train(params, dataset, cfg)
    save_checkpoint(trained, args.output)
    if args.report:
        atomic_write_text(args.report, dumps_canonical(report.to_dict()) + "\n")
    print(
        f"trained {len(dataset)} records for {cfg.epochs} epochs; "
        f"margin {round9(report.initial_margin):.9g} -> {round9(report.final_margin):.9g}"
    )
    return 0


def _build_eval_config(args) -> agent_pipeline.PipelineConfig:
    if args.meta_backend == "mock":
        if not args.transcript:
            raise _UsageError("--transcript is required with --meta-backend mock")
        spec = _load_transcript(args.transcript)
        agents = {
            c: _mock_from_spec(spec.get("agents", {}).get(c, {"default": f"resp-{c}"}), c)
            for c in CONTINENTS
        }
        meta = _mock_from_spec(spec.get("meta", {}), "meta")
    elif args.meta_backend == "remote":
        if not args.url:
            raise _UsageError("--url is required with --meta-backend remote")
        agents = {
            c: RemoteChat(args.url, args.model_name, label=c) for c in CONTINENTS
        }
        meta = RemoteChat(args.url, args.model_name, label="meta")
    else:
        if not args.model:
            raise _UsageError("--model is required with --meta-backend local")
        base = load_checkpoint(args.model)
        experts = dict(_parse_experts(args.expert))
        unknown = sorted(set(experts) - set(CONTINENTS))
        if unknown:
            raise _UsageError(f"--expert labels must be continents {CONTINENTS}, got {unknown}")
        if len(experts) != len(CONTINENTS) and not args.no_moerges:
            raise _UsageError("local eval needs all five --expert CONTINENT=PATH (or --no-moerges)")
        agents = {
            c: LocalReference(experts.get(c, base), label=c) for c in CONTINENTS
        }
        gate = gate_router.load_gate(args.gate) if args.gate else None
        if gate is None and not args.no_moerges:
            raise _UsageError("--gate is required with --meta-backend local unless --no-moerges")
        meta = agent_pipeline.FusedLocalMeta(
            base, experts or {c: base for c in CONTINENTS}, gate,
            mode=args.gate_mode, no_fuse=args.no_moerges,
        )
    return agent_pipeline.PipelineConfig(
        agents=agents,
        meta=meta,
        no_draft=args.no_draft,
        no_regulate=args.no_regulate,
        no_moerges=args.no_moerges,
        pearson_mode=args.pearson_mode,
    )


def _cmd_eval(args) -> int:
    items = agent_pipeline.load_opinion_items(args.items, args.country)
    config = _build_eval_config(args)
    report = agent_pipeline.evaluate_country(config, items, args.country)
    atomic_write_text(args.output, report.to_json() + "\n")
    r = "undefined" if report.pearson_r is None else f"{round9(report.pearson_r):.9g}"
    print(
        f"{args.country}: mean S_align {round9(report.mean_s_align):.9g} "
        f"over {len(items)} items, pearson {r}"
    )
    return 0


def _synth_backend(args):
    if args.backend == "mock":
        if not args.transcript:
            raise _UsageError("--transcript is required with --backend mock")
        return _mock_from_spec(_load_transcript(args.transcript), "synth")
    if args.backend == "remote":
        if not args.url:
            raise _UsageError("--url is required with --backend remote")
        return RemoteChat(args.url, args.model_name, label="synth")
    if not args.model:
        raise _UsageError("--model is required with --backend local")
    return LocalReference(load_checkpoint(args.model), label="synth")


def _cmd_synth(args) -> int:
    if args.synth_command == "run":
        queries = [row for _, row in iter_jsonl(args.queries, required=("id", "query"))]
        cfg = data_synth.SynthConfig(backend=_synth_backend(args), max_rounds=args.max_rounds)
        records = data_synth.run_synthesis(cfg, queries, args.out)
        approved = sum(1 for r in records if r.approved)
        print(f"synthesized {len(records)} records ({approved} approved) into {args.out}")
        return 0
    if args.synth_command == "pairs":
        records = data_synth.load_synth_records(args.records)
        pairs = data_synth.build_preference_pairs(data_synth.group_records(records))
        align_trainer.save_records_jsonl(pairs, args.output)
        print(f"wrote {len(pairs)} preference records to {args.output}")
        return 0
    rows = data_synth.import_prism(args.input)
    write_jsonl(args.output, rows)
    print(f"imported {len(rows)} queries to {args.output}")
    return 0


def _cmd_metrics(args) -> int:
    if args.metrics_command == "kl":
        value = metrics.kl(json.loads(args.p), json.loads(args.q))
        print(dumps_canonical({"kl_bits": value}, indent=None))
    elif args.metrics_command == "salign":
        value = metrics.alignment_score(json.loads(args.gen), json.loads(args.gold))
        print(dumps_canonical({"s_align": value}, indent=None))
    elif args.metrics_command == "pearson":
        value = metrics.pearson(json.loads(args.x), json.loads(args.y))
        print(dumps_canonical({"pearson_r": value}, indent=None))
    else:
        endpoint = metrics.NliScorerEndpoint(base_url=args.url)
        value = metrics.semantic_score(endpoint, args.gold, args.llm)
        print(dumps_canonical({"s_semantic": value}, indent=None))
    return 0


_COMMANDS = {
    "model": _cmd_model,
    "merge": _cmd_merge,
    "gate": _cmd_gate,
    "align": _cmd_align,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "metrics": _cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except PaletteError as exc:
        print(
            json.dumps(
                {"code": exc.code, "message": str(exc), "context": exc.context},
                sort_keys=True,
                default=str,
            ),
            file=sys.stderr,
        )
        return 2
    except Exception as exc:  # no stack traces on the CLI surface
        print(
            json.dumps(
                {"code": "internal", "message": f"{type(exc).__name__}: {exc}", "context": {}},
                sort_keys=True,
                default=str,
            ),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
