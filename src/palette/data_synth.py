"""Four-step continent dialogue synthesis and preference-pair assembly.

Step 1 drafts a continent-aware response, step 2 critiques it from the
other continents' standpoint (Hofstede dimensions), step 3 folds the
feedback back in, and step 4 runs a self-judge refine loop capped at
``max_rounds`` that stops early on an "[Approved]" verdict.

Every backend interaction is persisted append-only and keyed by
(query id, continent, step), so interrupted runs resume without repeating
completed calls.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .align_trainer import PreferenceRecord
from .common import CONTINENTS, append_jsonl, iter_jsonl
from .errors import IncompleteQuery
from .templates import render_template

logger = logging.getLogger(__name__)

APPROVED_MARKER = "[Approved]"
REVISE_MARKER = "[Revise]"
DEFAULT_MAX_ROUNDS = 3


@dataclass
class SynthConfig:
    backend: object
    max_rounds: int = DEFAULT_MAX_ROUNDS
    templates_dir: object = None

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class SynthRecord:
    query_id: str
    query: str
    continent: str
    base_response: str
    feedback: str
    aggregated: str
    final: str
    rounds_used: int
    approved: bool

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "query": self.query,
            "continent": self.continent,
            "base_response": self.base_response,
            "feedback": self.feedback,
            "aggregated": self.aggregated,
            "final": self.final,
            "rounds_used": self.rounds_used,
            "approved": self.approved,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthRecord":
        return cls(**obj)


# --- individual steps -----------------------------------------------------------

def generate_response(backend, query: str, continent: str, exemplars: str = "", templates_dir=None) -> str:
    if not query:
        raise ValueError("query must be non-empty")
    prompt = render_template(
        "synth_response", templates_dir, continent=continent, query=query, exemplars=exemplars
    )
    return backend.complete(prompt)


def cross_feedback(
    backend, response: str, continent: str, other_continents: Sequence[str], templates_dir=None
) -> str:
    if not response:
        raise ValueError("response must be non-empty")
    expected = set(CONTINENTS) - {continent}
    if set(other_continents) != expected or len(other_continents) != len(expected):
        raise ValueError(
            f"other_continents must be exactly the 4 non-{continent} labels, got {list(other_continents)}"
        )
    prompt = render_template(
        "synth_feedback",
        templates_dir,
        continent=continent,
        other_continents=", ".join(sorted(other_continents)),
        response=response,
    )
    return backend.complete(prompt)


def aggregate(backend, query: str, base_response: str, feedback: str, continent: str, templates_dir=None) -> str:
    if not (query and base_response and feedback):
        raise ValueError("query, base_response, and feedback must all be non-empty")
    prompt = render_template(
        "synth_aggregate",
        templates_dir,
        continent=continent,
        query=query,
        base_response=base_response,
        feedback=feedback,
    )
    return backend.complete(prompt)


def self_judge_refine(
    backend,
    query: str,
    response: str,
    continent: str,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    templates_dir=None,
    cached: Callable[[str, Callable[[], str]], str] | None = None,
) -> tuple[str, int, bool]:
    """Judge/revise loop. Returns (final response, rounds used, approved).

    A reply containing "[Approved]" stops the loop; "[Revise]" (or any reply
    with neither marker, which is logged and treated as a revision) feeds the
    judge's explanation back through the aggregation step.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    call = cached or (lambda _key, fn: fn())
    current = response
    for round_no in range(1, max_rounds + 1):
        judge_prompt = render_template(
            "synth_judge", templates_dir, continent=continent, query=query, response=current
        )
        verdict = call(f"judge{round_no}", lambda: backend.complete(judge_prompt))
        if APPROVED_MARKER in verdict:
            return current, round_no, True
        if REVISE_MARKER not in verdict:
            logger.warning(
                "ambiguous judge verdict (no marker) for %s round %d; treating as revise",
                continent, round_no,
            )
            explanation = verdict
        else:
            explanation = verdict.split(REVISE_MARKER, 1)[1].strip() or verdict
        revised = current
        current = call(
            f"revise{round_no}",
            lambda: aggregate(backend, query, revised, explanation, continent, templates_dir),
        )
    return current, max_rounds, False


# --- resumable pipeline -----------------------------------------------------------

class StepStore:
    """Append-only JSONL store of per-step backend outputs.

    Keys are (query_id, continent, step). `get_or_call` returns the persisted
    output when present, otherwise invokes the function and appends.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._cache: dict[tuple[str, str, str], str] = {}
        if self.path.exists():
            rows = iter_jsonl(self.path, required=("query_id", "continent", "step", "output"))
            for _, row in rows:
                self._cache[(row["query_id"], row["continent"], row["step"])] = row["output"]

    def get_or_call(self, query_id: str, continent: str, step: str, fn: Callable[[], str]) -> str:
        key = (query_id, continent, step)
        if key in self._cache:
            return self._cache[key]
        output = fn()
        self._cache[key] = output
        append_jsonl(
            self.path, {"query_id": query_id, "continent": continent, "step": step, "output": output}
        )
        return output


def records_file(out_dir, continent: str) -> Path:
    return Path(out_dir) / f"records_{continent}.jsonl"


def load_synth_records(path) -> list[SynthRecord]:
    """Read SynthRecords from a per-continent JSONL file or a directory of them."""
    path = Path(path)
    files = sorted(path.glob("records_*.jsonl")) if path.is_dir() else [path]
    required = [f.name for f in fields(SynthRecord)]
    return [
        SynthRecord.from_dict(row) for file in files for _, row in iter_jsonl(file, required)
    ]


def run_synthesis(
    cfg: SynthConfig, queries: Sequence[Mapping[str, str]], out_dir
) -> list[SynthRecord]:
    """Run all four steps for every (query, continent) cell, resuming from
    any previously persisted state in `out_dir`. Completed records append to
    one JSONL per continent."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = StepStore(out_dir / "steps.jsonl")

    done: dict[tuple[str, str], SynthRecord] = {}
    for rec in load_synth_records(out_dir):
        done[(rec.query_id, rec.continent)] = rec

    records = []
    for row in queries:
        qid, query = str(row["id"]), row["query"]
        for continent in CONTINENTS:
            if (qid, continent) in done:
                records.append(done[(qid, continent)])
                continue
            others = [c for c in CONTINENTS if c != continent]
            base_response = store.get_or_call(
                qid, continent, "response",
                lambda: generate_response(cfg.backend, query, continent, "", cfg.templates_dir),
            )
            feedback = store.get_or_call(
                qid, continent, "feedback",
                lambda: cross_feedback(cfg.backend, base_response, continent, others, cfg.templates_dir),
            )
            aggregated = store.get_or_call(
                qid, continent, "aggregate",
                lambda: aggregate(cfg.backend, query, base_response, feedback, continent, cfg.templates_dir),
            )
            final, rounds_used, approved = self_judge_refine(
                cfg.backend,
                query,
                aggregated,
                continent,
                cfg.max_rounds,
                cfg.templates_dir,
                cached=lambda step, fn: store.get_or_call(qid, continent, step, fn),
            )
            record = SynthRecord(
                query_id=qid,
                query=query,
                continent=continent,
                base_response=base_response,
                feedback=feedback,
                aggregated=aggregated,
                final=final,
                rounds_used=rounds_used,
                approved=approved,
            )
            append_jsonl(records_file(out_dir, continent), record.to_dict())
            records.append(record)
    return records


# --- preference-pair assembly -------------------------------------------------------

def build_preference_pairs(
    records: Mapping[str, Mapping[str, SynthRecord]]
) -> list[PreferenceRecord]:
    """For each (query, continent): that continent's final response is
    preferred and the other four continents' finals are the rejections.
    Yields 5 records per query, 4 rejections each."""
    out = []
    for qid in sorted(records):
        by_continent = records[qid]
        missing = [c for c in CONTINENTS if c not in by_continent]
        if missing:
            raise IncompleteQuery(f"query {qid!r} is missing continents {missing}")
        for continent in CONTINENTS:
            rec = by_continent[continent]
            rejected = tuple(
                by_continent[c].final for c in CONTINENTS if c != continent
            )
            out.append(
                PreferenceRecord(
                    query=rec.query,
                    preferred=rec.final,
                    rejected=rejected,
                    continent=continent,
                )
            )
    return out


def group_records(records: Sequence[SynthRecord]) -> dict[str, dict[str, SynthRecord]]:
    grouped: dict[str, dict[str, SynthRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.query_id, {})[rec.continent] = rec
    return grouped


def pair_counts(n_queries: int) -> dict[str, int]:
    """Dataset arithmetic without generating anything: record, rejection,
    and QA-pair counts implied by n source queries."""
    if n_queries < 0:
        raise ValueError("n_queries must be >= 0")
    return {
        "queries": n_queries,
        "preference_records": 5 * n_queries,
        "rejections_per_record": 4,
        "rejection_pairs_per_continent": 4 * n_queries,
        "qa_pairs_total": 5 * n_queries,
    }


# --- question import -------------------------------------------------------------

_QUERY_FIELDS = ("question", "query", "utterance", "user_prompt", "opening_prompt")
_ID_FIELDS = ("id", "question_id", "utterance_id", "conversation_id")


def _extract(row: Mapping[str, object], index: int) -> dict[str, str] | None:
    query = next((str(row[f]).strip() for f in _QUERY_FIELDS if row.get(f)), "")
    if not query:
        return None
    qid = next((str(row[f]) for f in _ID_FIELDS if row.get(f)), f"q{index:05d}")
    return {"id": qid, "query": query}


def import_prism(path) -> list[dict[str, str]]:
    """Convert a question CSV or JSONL export into {"id","query"} rows."""
    path = Path(path)
    if path.suffix.lower() != ".csv":
        return [r for i, row in iter_jsonl(path) if (r := _extract(row, i))]
    with open(path, encoding="utf-8", newline="") as fh:
        return [r for i, row in enumerate(csv.DictReader(fh)) if (r := _extract(row, i))]
