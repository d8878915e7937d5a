"""Four-step continent dialogue synthesis and preference-pair assembly.

Step 1 drafts a continent-aware response, step 2 critiques it from the
other continents' standpoint (Hofstede dimensions), step 3 folds the
feedback back in, and step 4 runs a self-judge refine loop capped at
``max_rounds`` that stops early on an "[Approved]" verdict.

Every backend interaction is persisted append-only and keyed by
(query id, continent, step), so interrupted runs resume without repeating
completed calls. The steps are ``response``, ``feedback`` and ``aggregate``,
then ``judge<n>`` and ``revise<n>`` for round n of the loop. A row that a
crash left half-appended is dropped on resume and computed again.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .align_trainer import PreferenceRecord
from .common import CONTINENTS, append_jsonl, bad_line, drop_torn_tail, iter_jsonl, row_id, unreadable, unwritable
from .errors import BackendFailure, PaletteError
from .templates import render_template

logger = logging.getLogger(__name__)

APPROVED_MARKER = "[Approved]"
REVISE_MARKER = "[Revise]"
DEFAULT_MAX_ROUNDS = 3


@dataclass
class SynthConfig:
    backend: object
    max_rounds: int = DEFAULT_MAX_ROUNDS

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
        return dict(vars(self))  # the fields are flat, so a shallow copy is a whole one

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthRecord":
        """The record of one JSON row; TypeError for a missing or extra key or a value of another type."""
        record = cls(**obj)
        for f in fields(cls):  # the annotations are strings; JSON values have exactly these types
            if type(obj[f.name]).__name__ != f.type:
                raise TypeError(f"{f.name!r} must be {f.type}, got {type(obj[f.name]).__name__}")
        return record


# --- the self-judge loop ---------------------------------------------------------

def self_judge_refine(ask, response: str, max_rounds: int) -> tuple[str, int, bool]:
    """Judge/revise loop of one cell. Returns (final response, rounds used, approved).

    ``ask`` is `stored_reply` bound to the cell, with the cell's continent and
    query as keywords (see `run_synthesis`). A reply containing "[Approved]"
    stops the loop; "[Revise]" (or any reply with neither marker, which is
    logged and treated as a revision) feeds the judge's explanation back
    through the aggregation template.
    """
    current = response
    for round_no in range(1, max_rounds + 1):
        verdict = ask(f"judge{round_no}", "synth_judge", response=current)
        if APPROVED_MARKER in verdict:
            return current, round_no, True
        if REVISE_MARKER not in verdict:
            logger.warning(
                "ambiguous judge verdict (no marker) for %s round %d; treating as revise",
                ask.keywords["continent"], round_no,
            )
            explanation = verdict
        else:
            explanation = verdict.split(REVISE_MARKER, 1)[1].strip() or verdict
        current = ask(f"revise{round_no}", "synth_aggregate", base_response=current, feedback=explanation)
    return current, max_rounds, False


# --- resumable pipeline -----------------------------------------------------------

class StepStore:
    """Append-only JSONL store of per-step backend outputs.

    Keys are (query_id, continent, step). `get_or_call` returns the persisted
    output when present, otherwise invokes the function and appends its output.
    It appends on the caller's ``fds``.
    """

    def __init__(self, path, fds: dict):
        self.path = Path(path)
        self._fds = fds
        self._cache: dict[tuple[str, str, str], str] = {}
        if self.path.exists():
            drop_torn_tail(self.path)
            rows = iter_jsonl(self.path, required=("query_id", "continent", "step", "output"))
            for index, row in rows:  # an empty or null output, which older runs stored, is asked again
                key = (row["query_id"], row["continent"], row["step"])
                if not all(isinstance(part, str) for part in key):
                    raise bad_line(self.path, index, "query_id, continent and step must be strings")
                if isinstance(row["output"], str) and row["output"]:
                    self._cache[key] = row["output"]

    def get_or_call(self, query_id: str, continent: str, step: str, fn: Callable[[], str]) -> str:
        key = (query_id, continent, step)
        if key in self._cache:
            return self._cache[key]
        output = fn()
        self._cache[key] = output
        append_jsonl(
            self._fds, self.path, {"query_id": query_id, "continent": continent, "step": step, "output": output}
        )
        return output


def stored_reply(store: StepStore, backend, query_id: str, step: str, template: str, **fields) -> str:
    """The reply to one step of a cell: the one ``store`` holds, or else ``template``
    rendered with ``fields`` (the cell's continent and query among them) and sent once.
    A reply that is not a non-empty string raises BackendFailure naming the backend's
    label and is not stored, so a rerun asks again."""
    continent = fields["continent"]

    def ask() -> str:
        reply = backend.complete(render_template(template, **fields))
        if not isinstance(reply, str) or not reply:
            raise BackendFailure(f"empty or non-string reply for query {query_id!r}, {continent}, step {step!r}",
                                 backend.label, query_id=query_id, continent=continent, step=step)
        return reply
    return store.get_or_call(query_id, continent, step, ask)


def load_synth_records(path) -> list[SynthRecord]:
    """Read SynthRecords from a per-continent JSONL file or a directory of them."""
    path = Path(path)
    files = sorted(path.glob("records_*.jsonl")) if path.is_dir() else [path]
    required = [f.name for f in fields(SynthRecord)]
    records = []
    for file in files:
        for index, row in iter_jsonl(file, required):
            try:
                records.append(SynthRecord.from_dict(row))
            except TypeError as exc:
                raise bad_line(file, index, str(exc)) from exc
    return records


def run_synthesis(
    cfg: SynthConfig, queries: Sequence[Mapping[str, str]], out_dir
) -> list[SynthRecord]:
    """Run all four steps for every (query, continent) cell, resuming from
    any previously persisted state in `out_dir`. Completed records append to
    one JSONL per continent. The run keeps one append descriptor per file."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise unwritable(out_dir, exc) from exc
    fds: dict = {}  # the append descriptor of each file, by path
    try:
        store = StepStore(out_dir / "steps.jsonl", fds)
        for file in sorted(out_dir.glob("records_*.jsonl")):
            drop_torn_tail(file)
        done: dict[tuple[str, str], SynthRecord] = {}
        for rec in load_synth_records(out_dir):
            done[(rec.query_id, rec.continent)] = rec

        records = []
        for row in queries:
            qid, query = row["id"], row["query"]
            for continent in CONTINENTS:
                if (qid, continent) in done:
                    records.append(done[(qid, continent)])
                    continue
                ask = functools.partial(stored_reply, store, cfg.backend, qid, continent=continent, query=query)
                base_response = ask("response", "synth_response")
                others = ", ".join(c for c in CONTINENTS if c != continent)
                feedback = ask("feedback", "synth_feedback", response=base_response, other_continents=others)
                aggregated = ask("aggregate", "synth_aggregate", base_response=base_response, feedback=feedback)
                final, rounds_used, approved = self_judge_refine(ask, aggregated, cfg.max_rounds)
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
                append_jsonl(fds, out_dir / f"records_{continent}.jsonl", record.to_dict())
                records.append(record)
        return records
    finally:
        for fd in fds.values():
            os.close(fd)


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
            raise PaletteError("incomplete_query", f"query {qid!r} is missing continents {missing}")
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


# --- question import -------------------------------------------------------------

_QUERY_FIELDS = ("question", "query", "utterance", "user_prompt", "opening_prompt")
_ID_FIELDS = ("id", "question_id", "utterance_id", "conversation_id")


def _extract(row: Mapping[str, object], index: int, line: int, path, seen: dict) -> dict[str, str] | None:
    for field in _QUERY_FIELDS:  # a blank alias gives way to the next one
        query = row.get(field)
        if isinstance(query, str):
            query = query.strip()
        if query:
            break
    else:
        return None
    if not isinstance(query, str):
        raise bad_line(path, line, f"the query field must be a string, got {type(query).__name__}")
    return {"id": row_id(path, line, row, seen, f"q{index:05d}", _ID_FIELDS), "query": query}


def import_prism(path) -> list[dict[str, str]]:
    """Convert a question CSV or JSONL export into {"id","query"} rows with unique ids."""
    path, seen = Path(path), {}
    if path.suffix.lower() != ".csv":
        return [r for i, row in iter_jsonl(path) if (r := _extract(row, i, i, path, seen))]
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise unreadable(path, exc) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise bad_line(path, data.count(b"\n", 0, exc.start), "not valid UTF-8") from exc
    rows = csv.DictReader(io.StringIO(text, newline=""))
    try:
        # line_num is the 1-based line a row ends on once it is read.
        return [r for i, row in enumerate(rows) if (r := _extract(row, i, rows.line_num - 1, path, seen))]
    except csv.Error as exc:
        # line_num counts the lines read in full, so it is the failing line's index.
        raise bad_line(path, rows.line_num, str(exc)) from exc
