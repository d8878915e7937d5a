"""Three-stage response pipeline: continental drafts, country-frame
regulation by the meta agent, and a final decision that yields both an
answer and a probability distribution over the answer options, plus
country-level evaluation against opinion-survey gold distributions.
"""

from __future__ import annotations

import json
import logging
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .common import CONTINENTS, bad_line, dumps_canonical, fingerprint, iter_jsonl, row_id
from .errors import BackendFailure, PaletteError
from .backends import LocalReference, option_distribution_from_scores
from .gate_router import TEMPERATURE, GateMatrix, route_prompt
from .merge_engine import FFN_PATTERN, moerges_fuse
from .metrics import alignment_score, check_distribution, normalize_distribution, pearson
from .templates import render_template
from .tensor_store import Checkpoint

logger = logging.getLogger(__name__)

OPTION_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
PARSE_ATTEMPTS = 3
GATE_MODES = ("per-request", "per-country")
DEFAULT_GATE_MODE = "per-request"


@dataclass
class OpinionItem:
    question: str
    options: list[str]
    gold: list[float]
    country: str
    qid: str

    def __post_init__(self):
        if not isinstance(self.question, str) or not self.question:
            raise ValueError("question must be a non-empty string")
        if not all(isinstance(o, str) for o in self.options):
            raise ValueError("options must be strings")
        if len(self.options) < 2:
            raise ValueError("an opinion item needs at least 2 options")
        if len(self.options) > len(OPTION_LETTERS):  # one answer letter per option
            raise ValueError(f"an opinion item has at most {len(OPTION_LETTERS)} options, got {len(self.options)}")
        if len(self.options) != len(self.gold):
            raise ValueError(
                f"{len(self.options)} options but {len(self.gold)} gold entries"
            )
        check_distribution(self.gold, "gold")


def load_opinion_items(path, country: str) -> list[OpinionItem]:
    """Read JSONL rows {"question","options",... ,"selections":{country:[...]}}.

    Gold vectors with more entries than the option list are truncated to the
    options and renormalized (logged per item); rows without data for the
    requested country are skipped.
    """
    items, seen = [], {}
    for lineno, row in iter_jsonl(path, required=("question", "options")):
        selections = row.get("selections", {})
        if not isinstance(selections, dict):
            raise bad_line(path, lineno, '"selections" must be an object')
        if country not in selections and row.get("country") != country:
            continue
        gold = selections.get(country, row.get("gold", []))
        options = row["options"]
        if not isinstance(gold, list) or not isinstance(options, list):
            raise bad_line(path, lineno, f"options and the gold for {country!r} must be arrays")
        if not all(isinstance(g, (int, float)) and not isinstance(g, bool) for g in gold):
            raise bad_line(path, lineno, f"the gold for {country!r} must be numbers")
        if not gold:
            raise bad_line(path, lineno, f"no gold distribution for {country!r}")
        if len(gold) > len(options):
            logger.info(
                "item %d: truncating gold from %d to %d options and renormalizing",
                lineno, len(gold), len(options),
            )
            gold = gold[: len(options)]
        elif len(gold) < len(options):
            logger.info(
                "item %d: truncating options from %d to %d gold entries",
                lineno, len(options), len(gold),
            )
            options = options[: len(gold)]
        try:
            item = OpinionItem(
                question=row["question"],
                options=options,
                gold=normalize_distribution(gold),
                country=country,
                qid=row_id(path, lineno, row, seen, f"q{lineno:04d}"),
            )
        except (TypeError, ValueError, PaletteError) as exc:
            if isinstance(exc, PaletteError) and exc.code not in ("negative_entry", "all_zero"):
                raise
            raise bad_line(path, lineno, str(exc)) from exc
        items.append(item)
    return items


# --- stages -------------------------------------------------------------------

def draft(agents: Mapping[str, object], country: str, query: str) -> str:
    """Ask all five continent agents and join their replies, each under its
    continent's tag, in continental order; fails atomically if any agent fails.

    Remote agents wait on HTTP, so they are asked at once on a thread pool.
    Every other agent is compute under the GIL and is asked in continental
    order on the calling thread, which starts no thread when none is remote.
    """
    missing = [c for c in CONTINENTS if c not in agents]
    if missing:
        raise BackendFailure(f"no agent configured for {missing[0]}", missing[0])

    def ask(continent: str) -> str:
        prompt = render_template(
            "draft", continent=continent, country=country, query=query
        )
        return agents[continent].complete(prompt)

    with ThreadPoolExecutor(max_workers=len(CONTINENTS)) as pool:
        futures = {
            c: pool.submit(ask, c)
            for c in CONTINENTS
            if getattr(agents[c], "kind", None) == "remote"
        }
        results: dict[str, str] = {}
        failure: tuple[str, Exception] | None = None
        for continent in CONTINENTS:
            try:
                future = futures.get(continent)
                results[continent] = future.result() if future else ask(continent)
            except Exception as exc:
                if failure is None:
                    failure = (continent, exc)
    if failure is not None:
        continent, exc = failure
        raise BackendFailure(f"draft stage failed for {continent}: {exc}", continent) from exc
    return "\n\n".join(f"[{c}] perspective:\n{results[c]}" for c in CONTINENTS)


def self_regulate(meta, drafts: str, country: str, query: str) -> str:
    """One meta call that recontextualizes all five tagged drafts for the country."""
    return meta.complete(render_template("regulate", country=country, query=query, drafts=drafts))


_ARRAY_RE = re.compile(r"\[[^\[\]]*\]")


def _parse_probability_array(text: str, n: int) -> list[float] | None:
    for match in _ARRAY_RE.finditer(text):
        try:
            values = json.loads(match.group(0), parse_int=float)
        except ValueError:
            continue
        if (
            isinstance(values, list)
            and len(values) == n
            and all(isinstance(v, float) and v >= 0 for v in values)
            and math.isfinite(sum(values))  # so the normalized entries are finite too
        ):
            return values
    return None


def final_decision(
    meta, regulated: str, item: OpinionItem, country: str
) -> tuple[str, list[float]]:
    """Produce (answer letter, normalized distribution over options).

    Local backends score the option texts by sequence log-probability and
    softmax them; text backends must reply with a JSON probability array and
    are re-prompted up to three times before unparseable_distribution.
    """
    options = "\n".join(f"{OPTION_LETTERS[i]}. {opt}" for i, opt in enumerate(item.options))
    prompt = render_template("final", country=country, query=item.question, options=options, drafts=regulated)
    if hasattr(meta, "score_options"):
        scores = meta.score_options(prompt, item.options)
        p_gen = option_distribution_from_scores(scores)
    else:
        p_gen = None
        attempt_prompt = prompt
        for _ in range(PARSE_ATTEMPTS):
            reply = meta.complete(attempt_prompt)
            raw = _parse_probability_array(reply, len(item.options))
            if raw is not None:
                if sum(raw) <= 0.0:
                    raise PaletteError("all_zero", "model emitted an all-zero distribution")
                p_gen = normalize_distribution(raw)
                break
            attempt_prompt = (
                prompt
                + f"\n\nReturn only a JSON array of {len(item.options)} non-negative probabilities."
            )
        if p_gen is None:
            raise PaletteError(
                "unparseable_distribution",
                f"no parseable distribution after {PARSE_ATTEMPTS} attempts", qid=item.qid
            )
    answer = OPTION_LETTERS[int(np.argmax(p_gen))]
    return answer, p_gen


# --- gate-weighted meta fusion --------------------------------------------------

def routing_text(country: str, query: str | None) -> str:
    preamble = f"You are answering for {country}."
    if query is None:
        return preamble
    return f"{preamble} {query}"


def fuse_meta(
    base: Checkpoint,
    experts: Mapping[str, Checkpoint],
    gate_matrix: GateMatrix,
    country: str,
    query: str | None = None,
) -> Checkpoint:
    """Route the country preamble, plus ``query`` unless it is None, through the
    gate and fuse the experts' feed-forward tensors onto the base. The fused
    checkpoint records the gate it used in its ``gate`` metadata."""
    weights = route_prompt(base, gate_matrix, routing_text(country, query))
    return moerges_fuse(base, [experts[c] for c in CONTINENTS], weights)


class FusedLocalMeta:
    """Meta-backend provider whose parameters are gate-fused.

    In per-request mode the gate is recomputed from the country preamble plus
    the query for every item; in per-country mode it is computed once from
    the country preamble and the fused backend is reused. With
    ``no_fuse=True`` (the merge ablation) the unfused base backs the meta
    agent directly.
    """

    def __init__(
        self,
        base: Checkpoint,
        experts: Mapping[str, Checkpoint],
        gate_matrix: GateMatrix | None,
        *,
        mode: str = DEFAULT_GATE_MODE,
        no_fuse: bool = False,
    ):
        if mode not in GATE_MODES:
            raise ValueError(f"unknown gate mode {mode!r}")
        self.base = base
        self.experts = dict(experts)
        self.gate_matrix = gate_matrix
        self.mode = mode
        self.no_fuse = no_fuse
        self._country_cache: dict[str, LocalReference] = {}
        self._base_backend = LocalReference(base, label="meta-base") if no_fuse else None

    def backend_for(self, country: str, query: str) -> LocalReference:
        if self._base_backend is not None:
            return self._base_backend
        if self.mode == "per-country" and country in self._country_cache:
            return self._country_cache[country]
        fused = fuse_meta(
            self.base, self.experts, self.gate_matrix, country, query if self.mode == "per-request" else None
        )
        backend = LocalReference(fused, label="meta-fused")
        if self.mode == "per-country":
            self._country_cache[country] = backend
        return backend

    def describe(self) -> dict:
        return {
            "kind": "local-fused",
            "mode": self.mode,
            "no_fuse": self.no_fuse,
            # The constants fuse_meta routes and fuses with; every eval
            # report's config_fingerprint hashes these two keys.
            "ffn_pattern": FFN_PATTERN,
            "temperature": TEMPERATURE,
        }


# --- country evaluation ---------------------------------------------------------

@dataclass
class PipelineConfig:
    agents: Mapping[str, object]
    meta: object  # a provider with backend_for(), or any backend
    no_draft: bool = False
    no_regulate: bool = False

    def describe(self) -> dict:
        return {
            "agents": {c: a.describe() for c, a in sorted(self.agents.items())},
            "meta": self.meta.describe(),
            "no_draft": self.no_draft,
            "no_regulate": self.no_regulate,
            "pearson_mode": "pooled",  # kept so every config_fingerprint stays the same
        }


@dataclass
class AlignmentReport:
    country: str
    per_question: list[dict]
    mean_s_align: float
    pearson_r: float | None
    config_fingerprint: str

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return dumps_canonical(self.to_dict())


def run_item(config: PipelineConfig, item: OpinionItem, country: str) -> tuple[str, list[float]]:
    """Drive one item through the (possibly ablated) three stages."""
    meta = config.meta
    if hasattr(meta, "backend_for"):
        meta = meta.backend_for(country, item.question)
    context = "" if config.no_draft else draft(config.agents, country, item.question)
    if not (config.no_draft or config.no_regulate):
        context = self_regulate(meta, context, country, item.question)
    return final_decision(meta, context, item, country)


def evaluate_country(
    config: PipelineConfig, items: Sequence[OpinionItem], country: str
) -> AlignmentReport:
    """Run every item through the pipeline and score against its gold
    distribution; the report is deterministic for deterministic backends."""
    if not items:
        raise PaletteError("empty_dataset", f"no opinion items supplied for {country}")
    for item in items:
        if item.country != country:
            raise ValueError(f"item {item.qid!r} belongs to {item.country!r}, not {country!r}")
    if not country:
        raise ValueError("country must be non-empty")

    per_question = []
    gen_all: list[float] = []
    gold_all: list[float] = []
    scores = []
    for item in items:
        try:
            answer, p_gen = run_item(config, item, country)
        except BackendFailure as exc:
            exc.context.setdefault("qid", item.qid)
            raise
        s = alignment_score(p_gen, item.gold)
        scores.append(s)
        gen_all.extend(p_gen)
        gold_all.extend(item.gold)
        per_question.append(
            {
                "qid": item.qid,
                "answer": answer,
                "p_gen": p_gen,
                "p_gold": list(item.gold),
                "s_align": s,
            }
        )

    return AlignmentReport(
        country=country,
        per_question=per_question,
        mean_s_align=sum(scores) / len(scores),
        pearson_r=pearson(gen_all, gold_all),
        config_fingerprint=fingerprint(config.describe()),
    )
