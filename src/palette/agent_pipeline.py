"""Three-stage response pipeline: continental drafts, country-frame
regulation by the meta agent, and a final decision that yields both an
answer and a probability distribution over the answer options, plus
country-level evaluation against opinion-survey gold distributions.
"""

from __future__ import annotations

import json
import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .common import CONTINENTS, bad_line, dumps_canonical, fingerprint, iter_jsonl
from .errors import (
    AllZero,
    BackendFailure,
    EmptyDataset,
    UnparseableDistribution,
)
from .backends import LocalReference, option_distribution_from_scores
from .gate_router import GateMatrix, GateWeights, route_prompt
from .merge_engine import moerges_fuse
from .metrics import alignment_score, check_distribution, normalize_distribution, pearson
from .templates import render_template
from .tensor_store import Checkpoint

logger = logging.getLogger(__name__)

OPTION_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
PARSE_ATTEMPTS = 3


@dataclass(frozen=True)
class CountryQuery:
    country: str
    query: str

    def __post_init__(self):
        if not self.country or not self.query:
            raise ValueError("country and query must both be non-empty")


@dataclass(frozen=True)
class Draft:
    """Exactly five (continent, response) pairs in fixed continental order."""

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        labels = tuple(label for label, _ in self.entries)
        if labels != CONTINENTS:
            raise ValueError(f"draft entries must follow {CONTINENTS}, got {labels}")

    def as_text(self) -> str:
        return "\n\n".join(
            f"[{label}] perspective:\n{text}" for label, text in self.entries
        )


@dataclass
class OpinionItem:
    question: str
    options: list[str]
    gold: list[float]
    country: str
    qid: str = ""

    def __post_init__(self):
        if len(self.options) < 2:
            raise ValueError("an opinion item needs at least 2 options")
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
    items = []
    for lineno, row in iter_jsonl(path, required=("question", "options")):
        selections = row.get("selections", {})
        if country not in selections and row.get("country") != country:
            continue
        gold = list(selections.get(country, row.get("gold", [])))
        if not gold:
            raise bad_line(path, lineno, f"no gold distribution for {country!r}")
        options = list(row["options"])
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
        gold = normalize_distribution(gold)
        items.append(
            OpinionItem(
                question=row["question"],
                options=options,
                gold=gold,
                country=country,
                qid=str(row.get("id", f"q{lineno:04d}")),
            )
        )
    return items


# --- stages -------------------------------------------------------------------

def draft(agents: Mapping[str, object], cq: CountryQuery, templates_dir=None) -> Draft:
    """Fan out to all five continent agents; fails atomically if any agent fails."""
    missing = [c for c in CONTINENTS if c not in agents]
    if missing:
        raise BackendFailure(f"no agent configured for {missing[0]}", missing[0])

    def ask(continent: str) -> str:
        prompt = render_template(
            "draft",
            templates_dir,
            continent=continent,
            country=cq.country,
            query=cq.query,
        )
        return agents[continent].complete(prompt)

    with ThreadPoolExecutor(max_workers=len(CONTINENTS)) as pool:
        futures = {c: pool.submit(ask, c) for c in CONTINENTS}
        results: dict[str, str] = {}
        failure: tuple[str, Exception] | None = None
        for continent in CONTINENTS:
            try:
                results[continent] = futures[continent].result()
            except Exception as exc:
                if failure is None:
                    failure = (continent, exc)
    if failure is not None:
        continent, exc = failure
        raise BackendFailure(f"draft stage failed for {continent}: {exc}", continent) from exc
    return Draft(entries=tuple((c, results[c]) for c in CONTINENTS))


def self_regulate(meta, draft_obj: Draft, cq: CountryQuery, templates_dir=None) -> str:
    """One meta call that recontextualizes all five tagged drafts for the country."""
    prompt = render_template(
        "regulate",
        templates_dir,
        country=cq.country,
        query=cq.query,
        drafts=draft_obj.as_text(),
    )
    return meta.complete(prompt)


def _lettered_options(options: Sequence[str]) -> str:
    return "\n".join(f"{OPTION_LETTERS[i]}. {opt}" for i, opt in enumerate(options))


def final_prompt(item: OpinionItem, country: str, context: str, templates_dir=None) -> str:
    return render_template(
        "final",
        templates_dir,
        country=country,
        query=item.question,
        options=_lettered_options(item.options),
        drafts=context,
    )


_ARRAY_RE = re.compile(r"\[[^\[\]]*\]")


def _parse_probability_array(text: str, n: int) -> list[float] | None:
    for match in _ARRAY_RE.finditer(text):
        try:
            values = json.loads(match.group(0))
        except ValueError:
            continue
        if (
            isinstance(values, list)
            and len(values) == n
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
            and all(v >= 0 for v in values)
        ):
            return [float(v) for v in values]
    return None


def final_decision(
    meta,
    regulated: str,
    item: OpinionItem,
    country: str,
    templates_dir=None,
) -> tuple[str, list[float]]:
    """Produce (answer letter, normalized distribution over options).

    Local backends score the option texts by sequence log-probability and
    softmax them; text backends must reply with a JSON probability array and
    are re-prompted up to three times before UnparseableDistribution.
    """
    prompt = final_prompt(item, country, regulated, templates_dir)
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
                    raise AllZero("model emitted an all-zero distribution")
                p_gen = normalize_distribution(raw)
                break
            attempt_prompt = (
                prompt
                + f"\n\nReturn only a JSON array of {len(item.options)} non-negative probabilities."
            )
        if p_gen is None:
            raise UnparseableDistribution(
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
    experts: Mapping[str, Checkpoint] | Sequence[Checkpoint],
    gate_matrix: GateMatrix | None,
    country: str,
    query: str | None = None,
    *,
    mode: str = "per-request",
    temperature: float = 1.0,
    ffn_pattern: str = "*.ffn.*",
    gate_override: Sequence[float] | None = None,
) -> tuple[Checkpoint, GateWeights]:
    """Route the country/query context through the gate and fuse the experts'
    feed-forward tensors onto the base. Returns (fused params, gate used)."""
    if isinstance(experts, Mapping):
        ordered = [experts[c] for c in CONTINENTS]
    else:
        ordered = list(experts)
    if gate_override is not None:
        weights = GateWeights(values=tuple(float(g) for g in gate_override))
    else:
        if gate_matrix is None:
            raise ValueError("either gate_matrix or gate_override is required")
        text = routing_text(country, query if mode == "per-request" else None)
        weights = route_prompt(base, gate_matrix, text, temperature)
    fused = moerges_fuse(base, ordered, list(weights), ffn_pattern)
    return fused, weights


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
        mode: str = "per-request",
        temperature: float = 1.0,
        ffn_pattern: str = "*.ffn.*",
        no_fuse: bool = False,
        max_new_tokens: int = 48,
    ):
        if mode not in ("per-request", "per-country"):
            raise ValueError(f"unknown gate mode {mode!r}")
        self.base = base
        self.experts = dict(experts)
        self.gate_matrix = gate_matrix
        self.mode = mode
        self.temperature = temperature
        self.ffn_pattern = ffn_pattern
        self.no_fuse = no_fuse
        self.max_new_tokens = max_new_tokens
        self.fusions: list[dict] = []
        self._country_cache: dict[str, LocalReference] = {}
        self._base_backend: LocalReference | None = None

    def backend_for(self, country: str, query: str) -> LocalReference:
        if self.no_fuse:
            if self._base_backend is None:
                self._base_backend = LocalReference(
                    self.base, self.max_new_tokens, label="meta-base"
                )
            return self._base_backend
        if self.mode == "per-country" and country in self._country_cache:
            return self._country_cache[country]
        fused, weights = fuse_meta(
            self.base,
            self.experts,
            self.gate_matrix,
            country,
            query,
            mode=self.mode,
            temperature=self.temperature,
            ffn_pattern=self.ffn_pattern,
        )
        self.fusions.append({"country": country, "gate": list(weights)})
        backend = LocalReference(fused, self.max_new_tokens, label="meta-fused")
        if self.mode == "per-country":
            self._country_cache[country] = backend
        return backend

    def describe(self) -> dict:
        return {
            "kind": "local-fused",
            "mode": self.mode,
            "no_fuse": self.no_fuse,
            "ffn_pattern": self.ffn_pattern,
            "temperature": self.temperature,
        }


class StaticMeta:
    """Meta provider that always returns the same backend (mock or remote)."""

    def __init__(self, backend):
        self.backend = backend

    def backend_for(self, country: str, query: str):
        return self.backend

    def describe(self) -> dict:
        return dict(self.backend.describe())


# --- country evaluation ---------------------------------------------------------

@dataclass
class PipelineConfig:
    agents: Mapping[str, object]
    meta: object  # a provider with backend_for(), or any backend
    templates_dir: object = None
    no_draft: bool = False
    no_regulate: bool = False
    no_moerges: bool = False
    pearson_mode: str = "pooled"  # or "per_question_mean"

    def meta_provider(self):
        if hasattr(self.meta, "backend_for"):
            return self.meta
        return StaticMeta(self.meta)

    def describe(self) -> dict:
        provider = self.meta_provider()
        return {
            "agents": {c: a.describe() for c, a in sorted(self.agents.items())},
            "meta": provider.describe(),
            "no_draft": self.no_draft,
            "no_regulate": self.no_regulate,
            "no_moerges": self.no_moerges,
            "pearson_mode": self.pearson_mode,
        }


@dataclass
class AlignmentReport:
    country: str
    per_question: list[dict]
    mean_s_align: float
    pearson_r: float | None
    config_fingerprint: str

    def to_dict(self) -> dict:
        return {
            "country": self.country,
            "config_fingerprint": self.config_fingerprint,
            "mean_s_align": self.mean_s_align,
            "pearson_r": self.pearson_r,
            "per_question": self.per_question,
        }

    def to_json(self) -> str:
        return dumps_canonical(self.to_dict())


def run_item(config: PipelineConfig, item: OpinionItem, country: str) -> tuple[str, list[float]]:
    """Drive one item through the (possibly ablated) three stages."""
    cq = CountryQuery(country=country, query=item.question)
    meta = config.meta_provider().backend_for(country, item.question)
    if config.no_draft:
        context = ""
    else:
        draft_obj = draft(config.agents, cq, config.templates_dir)
        if config.no_regulate:
            context = draft_obj.as_text()
        else:
            context = self_regulate(meta, draft_obj, cq, config.templates_dir)
    return final_decision(meta, context, item, country, config.templates_dir)


def prompting_baseline(meta, item: OpinionItem, country: str, templates_dir=None):
    """Direct country-context prompting: the final stage with empty context."""
    return final_decision(meta, "", item, country, templates_dir)


def evaluate_country(
    config: PipelineConfig, items: Sequence[OpinionItem], country: str
) -> AlignmentReport:
    """Run every item through the pipeline and score against its gold
    distribution; the report is deterministic for deterministic backends."""
    if not items:
        raise EmptyDataset(f"no opinion items supplied for {country}")
    for item in items:
        if item.country != country:
            raise ValueError(f"item {item.qid!r} belongs to {item.country!r}, not {country!r}")

    per_question = []
    gen_all: list[float] = []
    gold_all: list[float] = []
    scores = []
    for item in items:
        try:
            answer, p_gen = run_item(config, item, country)
        except Exception as exc:
            if isinstance(exc, BackendFailure):
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

    if config.pearson_mode == "per_question_mean":
        rs = [
            pearson(q["p_gen"], q["p_gold"])
            for q in per_question
        ]
        defined = [r for r in rs if r is not None]
        r = sum(defined) / len(defined) if defined else None
    else:
        r = pearson(gen_all, gold_all)

    return AlignmentReport(
        country=country,
        per_question=per_question,
        mean_s_align=sum(scores) / len(scores),
        pearson_r=r,
        config_fingerprint=fingerprint(config.describe()),
    )
