"""The four benchmark workloads and the layer wrapping of the traced run.

Every workload builds its inputs from the seed in ``__init__`` (the set-up),
then ``step(i)`` does one unit of work (a training job, an evaluated item, a
synthesis job, a merge job) and checks its outputs. Work is timed inside
``phase`` blocks only, so output checks and digests stay out of the timings
and, in a traced run, out of the per-layer figures. A phase is timed twice:
in wall-clock seconds and in CPU seconds of the process (all its threads).

Why each workload exists is in ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from palette import (
    agent_pipeline,
    align_trainer,
    backends,
    data_synth,
    gate_router,
    merge_engine,
    reference_model,
    tensor_store,
)
from palette.common import CONTINENTS, dumps_canonical
from palette.reference_model import ModelConfig

import chat_stub

MB = 1e6
#: a run sets up this many times at least, and for this long at least
SETUP_REPEATS = 7
SETUP_SECONDS = 2.0


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tiny_model_config(seed: int) -> ModelConfig:
    return ModelConfig(d_model=16, n_layers=1, n_heads=2, max_seq=160, seed=seed)


class Workload:
    """Set-up in ``__init__``; one unit of work per ``step``.

    Subclasses take ``(seed, work_dir, tiny, inputs)``: ``tiny`` shrinks the
    inputs and ``inputs`` is what ``prepare`` returned.
    """

    name = ""
    unit = ""
    #: (units key, phases timed) of the workload's ``work_per_s``
    work: tuple[str, tuple[str, ...]] = ("", ())
    #: steps a run makes even when ``--seconds`` have passed
    MIN_STEPS = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = None
        self.step_no = None
        self.times: dict[str, float] = defaultdict(float)
        self.cpu_times: dict[str, float] = defaultdict(float)
        self.units: dict[str, float] = defaultdict(float)
        #: (wall seconds, CPU seconds, units) by phase, of each completed step
        self.per_step: list[tuple[dict[str, float], dict[str, float], dict[str, float]]] = []
        self.digests: dict[str, str] = {}

    @contextmanager
    def phase(self, name: str, units: float = 0.0):
        """Time a block of program work and tag its spans with the step."""
        if self.tracer is not None:
            self.tracer.item = self.step_no
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.times[name] += time.perf_counter() - started
            self.cpu_times[name] += time.process_time() - cpu_started
            self.units[name] += units
            if self.tracer is not None:
                self.tracer.item = None

    @classmethod
    def prepare(cls, seed: int, work_dir: Path, tiny: bool):
        """Untimed inputs shared by the set-ups of one run, with a ``close``;
        passed to ``__init__`` as ``inputs``."""
        return None

    def run_step(self, i: int) -> None:
        """``step(i)``, keeping the times and units of each completed step."""
        before = [dict(self.times), dict(self.cpu_times), dict(self.units)]
        self.step_no = i
        self.step(i)
        after = (self.times, self.cpu_times, self.units)
        self.per_step.append(
            tuple(
                {k: v - old.get(k, 0.0) for k, v in new.items()} for old, new in zip(before, after)
            )
        )

    def step(self, i: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release processes and files of the set-up."""

    def rate(self, units_key: str, phases=None, wall: bool = False) -> float:
        """Median over completed steps of units per CPU second (or wall-clock
        second) of the phases."""
        rates = []
        for wall_times, cpu_times, units in self.per_step:
            times = wall_times if wall else cpu_times
            seconds = sum(times.get(p, 0.0) for p in phases or [units_key])
            if seconds > 0:
                rates.append(units.get(units_key, 0.0) / seconds)
        return statistics.median(rates) if rates else 0.0

    def work_units(self) -> float:
        return self.units[self.work[0]]

    def work_per_s(self, wall: bool = False) -> float:
        return self.rate(*self.work, wall=wall)

    def step_seconds(self, wall: bool = False) -> list[float]:
        """CPU (or wall-clock) seconds of the work phases, per completed step."""
        clock = 0 if wall else 1
        return [sum(step[clock].get(p, 0.0) for p in self.work[1]) for step in self.per_step]

    def named_metrics(self) -> dict[str, tuple[float, str]]:
        """The workload's own throughput figures, by the names in README.md."""
        return {}

    def layer_extras(self) -> dict[str, float]:
        """Per-layer counters measured outside the spans (the chat stub's)."""
        return {}


# --- align -------------------------------------------------------------------

ALIGN_STYLES = {
    "Africa": "the village decides together",
    "America": "each person picks a path",
    "Asia": "the group keeps its balance",
    "Europe": "old customs follow civic rules",
    "Oceania": "land and sea shape the day",
}
TOPICS = (
    "meals", "greetings", "weddings", "markets", "music", "elders", "rain",
    "harvest", "funerals", "festivals", "gifts", "sport",
)


def align_dataset(seed: int, n_queries: int) -> list[align_trainer.PreferenceRecord]:
    """C5-style toy set: one record per continent and query, 4 rejections each."""
    rng = np.random.default_rng(seed)
    records = []
    for q in range(n_queries):
        topic = TOPICS[int(rng.integers(len(TOPICS)))]
        finals = {c: f"In {c}, {ALIGN_STYLES[c]} at {topic}." for c in CONTINENTS}
        for c in CONTINENTS:
            records.append(
                align_trainer.PreferenceRecord(
                    query=f"q{q} ({c}): what happens at {topic}?",
                    preferred=finals[c],
                    rejected=tuple(finals[o] for o in CONTINENTS if o != c),
                    continent=c,
                )
            )
    return records


class Align(Workload):
    """Repeated one-epoch ``train`` jobs from the same base on the same set."""

    name = "align"
    unit = "record"
    work = ("train", ("train",))

    def __init__(self, seed, work_dir, tiny, inputs=None):
        super().__init__(seed, work_dir)
        cfg = tiny_model_config(seed) if tiny else ModelConfig(seed=seed)
        self.base = reference_model.init_model(cfg)
        self.dataset = align_dataset(seed, 1 if tiny else 4)
        self.train_cfg = align_trainer.TrainConfig(epochs=1, batch_size=8)

    def step(self, i):
        with self.phase("train", len(self.dataset)):
            trained, report = align_trainer.train(self.base, self.dataset, self.train_cfg)
        check(
            report.final_margin > report.initial_margin,
            f"margin fell from {report.initial_margin} to {report.final_margin}",
        )
        path = self.work_dir / "trained.st"
        tensor_store.save_checkpoint(trained, path)
        digests = {
            "checkpoint": sha256(path.read_bytes()),
            "report": sha256(dumps_canonical(report.to_dict()).encode("utf-8")),
        }
        check(
            digests == self.digests or not self.digests,
            "training the same set twice gave different bytes",
        )
        self.digests = digests

    def named_metrics(self):
        return {"records_per_s": (self.work_per_s(), "1/s")}


# --- eval --------------------------------------------------------------------

COUNTRIES = ("Japan", "Kenya", "Brazil", "Germany", "India", "Australia", "Mexico", "Egypt")
SCALES = (
    ("Very important", "Rather important", "Not very important", "Not at all important"),
    ("Agree strongly", "Agree", "Disagree", "Disagree strongly"),
    ("Always", "Often", "Rarely", "Never"),
)


def opinion_items(seed: int, country: str, n: int) -> list[agent_pipeline.OpinionItem]:
    """Generated survey items on one 4-option scale, each with a random gold
    distribution."""
    rng = np.random.default_rng(seed)
    options = SCALES[int(rng.integers(len(SCALES)))]
    items = []
    for k in range(n):
        topic = TOPICS[int(rng.integers(len(TOPICS)))]
        gold = rng.dirichlet(np.ones(len(options)))
        items.append(
            agent_pipeline.OpinionItem(
                question=f"How do you feel about {topic} where you live? (item {k})",
                options=list(options),
                gold=[float(g) for g in gold / gold.sum()],
                country=country,
                qid=f"s{seed}-q{k}",
            )
        )
    return items


class Eval(Workload):
    """Local ``palette eval`` with a per-request gate, one item per step.

    Steps alternate over two items, so a repeat compares report bytes while a
    cache keyed by the item could not serve consecutive steps. Three steps
    at least, so that every run repeats an item.

    The models are the same for every seed, as the checkpoints a user
    evaluates with are; the seed picks the country and the items. With models
    drawn from the seed, the meta model of some seeds stopped at EOS early,
    and an item's forward tokens differed by an eighth between seeds.
    """

    name = "eval"
    unit = "item"
    work = ("eval", ("eval",))
    MIN_STEPS = 3
    N_ITEMS = 2
    MODEL_SEED = 0

    def __init__(self, seed, work_dir, tiny, inputs=None):
        super().__init__(seed, work_dir)
        make_cfg = tiny_model_config if tiny else (lambda s: ModelConfig(seed=s))
        base = reference_model.init_model(make_cfg(self.MODEL_SEED))
        experts = {
            c: reference_model.init_model(make_cfg(self.MODEL_SEED + 1 + k))
            for k, c in enumerate(CONTINENTS)
        }
        gate = gate_router.init_gate(base)
        self.config = agent_pipeline.PipelineConfig(
            agents={c: backends.LocalReference(experts[c], label=c) for c in CONTINENTS},
            meta=agent_pipeline.FusedLocalMeta(base, experts, gate, mode="per-request"),
        )
        self.country = COUNTRIES[seed % len(COUNTRIES)]
        self.items = opinion_items(seed, self.country, self.N_ITEMS)

    def step(self, i):
        item = self.items[i % len(self.items)]
        with self.phase("eval", 1):
            report = agent_pipeline.evaluate_country(self.config, [item], self.country)
        for row in report.per_question:
            p = row["p_gen"]
            check(
                len(p) == len(item.options)
                and all(math.isfinite(x) and x >= 0.0 for x in p)
                and abs(sum(p) - 1.0) < 1e-9,
                f"p_gen {p} is not a distribution over {len(item.options)} options",
            )
        key, digest = f"report_{item.qid}", sha256(report.to_json().encode("utf-8"))
        if key in self.digests:
            check(digest == self.digests[key], f"report bytes of {item.qid} changed on repeat")
        self.digests[key] = digest

    def named_metrics(self):
        return {"items_per_s": (self.work_per_s(), "1/s")}


# --- synth -------------------------------------------------------------------

class ChatStub:
    """The loopback chat server of ``chat_stub.py``, in a child process."""

    def __init__(self):
        script = Path(__file__).with_name("chat_stub.py")
        self.proc = subprocess.Popen(
            [sys.executable, str(script)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise RuntimeError(f"chat stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.stdin.close()  # the stub exits when its stdin closes
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


#: queries of the paper's synthesis run (README: 7,805 queries)
PAPER_QUERIES = 7805
#: a tenth of them, in the finished directory the resume passes read
RESUME_QUERIES = 781


def synth_queries(seed: int, n: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    topics = [TOPICS[int(rng.integers(len(TOPICS)))] for _ in range(n)]
    return [
        {"id": f"s{seed}-q{k}", "query": f"How do families mark {topic} (case {k})?"}
        for k, topic in enumerate(topics)
    ]


class StubReplies:
    """The chat stub's replies without the wire, to build the resume store."""

    def complete(self, prompt: str) -> str:
        return chat_stub.reply_for(prompt)


class SynthInputs:
    """Untimed inputs of one synth run: the question export, the chat stub,
    and a finished job directory for the resume passes."""

    def __init__(self, seed, work_dir, tiny):
        self.queries = queries = synth_queries(seed, 12 if tiny else PAPER_QUERIES)
        self.questions = work_dir / "questions.jsonl"
        with open(self.questions, "w", encoding="utf-8") as fh:
            for q in queries:
                fh.write(json.dumps({"id": q["id"], "question": q["query"]}) + "\n")
        self.stub = None
        try:
            self.stub = ChatStub()
            self.resume_queries = queries[: 2 if tiny else RESUME_QUERIES]
            self.resume_dir = work_dir / "resume"
            records = data_synth.run_synthesis(
                data_synth.SynthConfig(backend=StubReplies()), self.resume_queries, self.resume_dir
            )
            self.resume_digest = records_digest(records)
        except BaseException:
            self.close()
            raise

    def close(self):
        if self.stub is not None:
            self.stub.close()


def records_digest(records) -> str:
    return sha256(json.dumps([r.to_dict() for r in records], sort_keys=True).encode("utf-8"))


class Synth(Workload):
    """Each step is one ``synth run`` job into a fresh directory, then two
    resume passes over a finished directory of a tenth of the paper's run.

    The first resume pass finds the directory complete. Before the second,
    the records files are deleted, so every step replays from the step store.
    Neither pass may call the backend.
    """

    name = "synth"
    unit = "cell"
    work = ("fresh", ("fresh",))
    JOB_QUERIES = 8

    @classmethod
    def prepare(cls, seed, work_dir, tiny):
        return SynthInputs(seed, work_dir, tiny)

    def __init__(self, seed, work_dir, tiny, inputs):
        super().__init__(seed, work_dir)
        self.inputs = inputs
        self.job_queries = 1 if tiny else self.JOB_QUERIES
        # What `palette synth run` does before its first call.
        self.queries = data_synth.import_prism(inputs.questions)
        self.cfg = data_synth.SynthConfig(backend=self._client())
        self.stub_totals: dict[str, float] = defaultdict(float)

    def _client(self):
        return backends.RemoteChat(self.inputs.stub.url, "stub", label="synth")

    def _stub_delta(self, before: dict) -> dict:
        after = self.inputs.stub.stats()
        delta = {k: after[k] - before[k] for k in after}
        for k, v in delta.items():
            self.stub_totals[k] += v
        return delta

    def step(self, i):
        if i == 0:
            check(self.queries == self.inputs.queries, "import_prism read the questions wrongly")
        # A client per job, as each `palette synth run` has: RemoteChat keeps
        # every prompt it sent, so a shared one would grow with the run.
        cfg = self.cfg if i == 0 else data_synth.SynthConfig(backend=self._client())
        first = len(self.inputs.resume_queries)
        jobs = (len(self.queries) - first) // self.job_queries
        start = first + (i % jobs) * self.job_queries
        queries = self.queries[start : start + self.job_queries]
        job_dir = self.work_dir / f"job{i}"
        cells = len(CONTINENTS) * len(queries)
        before = self.inputs.stub.stats()
        with self.phase("fresh", cells):
            records = data_synth.run_synthesis(cfg, queries, job_dir)
        sent = self._stub_delta(before)["requests"]
        check(sent == len(cfg.backend.calls), f"{sent} requests for {len(cfg.backend.calls)} calls")
        grouped = data_synth.group_records(records)
        check(
            len(records) == cells
            and sorted(grouped) == sorted(q["id"] for q in queries)
            and all(sorted(by_c) == sorted(CONTINENTS) for by_c in grouped.values()),
            f"expected 5 cells for each of {len(queries)} queries, got {len(records)} records",
        )
        if i == 0:
            self.digests = {
                "records": records_digest(records),
                "steps": sha256((job_dir / "steps.jsonl").read_bytes()),
                "resume_records": self.inputs.resume_digest,
            }
        for path in job_dir.iterdir():
            path.unlink()
        job_dir.rmdir()

        resume_dir = self.inputs.resume_dir
        resume_queries = self.inputs.resume_queries
        resume_cells = len(CONTINENTS) * len(resume_queries)
        for r in range(2):
            if r:
                for path in resume_dir.glob("records_*.jsonl"):
                    path.unlink()
            before = self.inputs.stub.stats()
            with self.phase("resume", resume_cells):
                again = data_synth.run_synthesis(cfg, resume_queries, resume_dir)
            calls = self._stub_delta(before)["requests"]
            check(calls == 0, f"resume pass {r} made {calls} backend calls")
            check(
                records_digest(again) == self.inputs.resume_digest,
                f"resume pass {r} changed the records",
            )

    def named_metrics(self):
        return {
            "cells_per_s": (self.work_per_s(), "1/s"),
            "resume_cells_per_s": (self.rate("resume"), "1/s"),
        }

    def layer_extras(self):
        t = self.stub_totals
        return {
            "remote_requests": t["requests"],
            "remote_bytes": t["bytes_in"] + t["bytes_out"],
            "stub_s": t["handler_s"],
        }


# --- merge -------------------------------------------------------------------

class Merge(Workload):
    """Load a base and five experts, run the four merges, save each result."""

    name = "merge"
    unit = "job"
    work = ("job", ("load", "ties", "linear", "save"))
    TIES_DENSITY = 0.2

    def __init__(self, seed, work_dir, tiny, inputs=None):
        super().__init__(seed, work_dir)
        cfg = tiny_model_config(seed) if tiny else ModelConfig(d_model=256, n_layers=4, seed=seed)
        base = reference_model.init_model(cfg)
        rng = np.random.default_rng(seed)
        experts = [
            tensor_store.Checkpoint(
                [
                    tensor_store.TensorSpec(
                        name, spec.shape, spec.data + rng.normal(0.0, 0.002, spec.data.size)
                    )
                    for name, spec in base.items()
                ],
                base.metadata,
            )
            for _ in CONTINENTS
        ]
        self.paths = [work_dir / f"in{k}.st" for k in range(1 + len(experts))]
        for path, ckpt in zip(self.paths, [base] + experts):
            tensor_store.save_checkpoint(ckpt, path)
        self.in_mb = sum(p.stat().st_size for p in self.paths) / MB
        g = np.exp(rng.normal(size=len(CONTINENTS)))
        self.gate = [float(x) for x in g / g.sum()]
        self.coeffs = [1.0 / len(experts)] * len(experts)

    def step(self, i):
        with self.phase("load", self.in_mb):
            base, *experts = [tensor_store.load_checkpoint(p) for p in self.paths]
        with self.phase("ties", self.in_mb):
            outputs = {"ties": merge_engine.ties_merge(base, experts, self.TIES_DENSITY)}
        with self.phase("linear", 3 * self.in_mb):
            outputs["task"] = merge_engine.task_arithmetic(base, experts, self.coeffs)
            outputs["stock"] = merge_engine.model_stock(base, experts)
            outputs["moerges"] = merge_engine.moerges_fuse(base, experts, self.gate)
        paths = {name: self.work_dir / f"out_{name}.st" for name in outputs}
        with self.phase("save"):
            for name, ckpt in outputs.items():
                tensor_store.save_checkpoint(ckpt, paths[name])
        self.units["save"] += sum(p.stat().st_size for p in paths.values()) / MB
        self.units["job"] += 1
        digests = {}
        for name, path in paths.items():
            data = path.read_bytes()
            check(
                tensor_store.load_checkpoint(path) == outputs[name],
                f"{name} result changed on save and load",
            )
            digests[name] = sha256(data)
        check(digests == self.digests or not self.digests, "the same merge gave different bytes")
        self.digests = digests

    def named_metrics(self):
        return {
            "ties_mb_per_s": (self.rate("ties"), "MB/s"),
            "linear_merge_mb_per_s": (self.rate("linear"), "MB/s"),
            "ckpt_load_mb_per_s": (self.rate("load"), "MB/s"),
            "ckpt_save_mb_per_s": (self.rate("save"), "MB/s"),
        }


WORKLOADS = {w.name: w for w in (Align, Eval, Synth, Merge)}


# --- traced run ----------------------------------------------------------------

def install_tracing(tracer) -> None:
    """Wrap the public functions of each layer where their callers find them."""
    rm, ap = reference_model, agent_pipeline

    def tokens(span, args, kwargs, result):
        span.counts["tokens"] = len(args[1])

    def decoded(span, args, kwargs, result):
        span.counts["decoded"] = len(result)

    def file_bytes(index):
        def count(span, args, kwargs, result):
            span.counts["bytes"] = os.path.getsize(args[index])
        return count

    def rounds(span, args, kwargs, result):
        span.counts["rounds"] = result[1]

    def completed(span, args, kwargs, result):
        span.counts["ok"] = 1

    tracer.wrap(rm.TinyTransformer, "forward_trace", "forward", tokens)
    tracer.wrap(rm.Trace, "backward", "backward")
    tracer.wrap(rm.TinyTransformer, "greedy_decode", "decode", decoded)
    tracer.wrap(rm.TinyTransformer, "from_checkpoint", "view_build")
    tracer.wrap(align_trainer, "train", "train")
    tracer.wrap(align_trainer, "mean_margin", "margin")
    tracer.wrap(ap, "draft", "draft")
    tracer.wrap(ap, "self_regulate", "regulate")
    tracer.wrap(ap, "final_decision", "final")
    tracer.wrap(ap.FusedLocalMeta, "backend_for", "meta_setup")
    tracer.wrap(ap, "route_prompt", "route")
    tracer.wrap(ap, "moerges_fuse", "fuse")
    tracer.wrap(ap, "render_template", "render")
    tracer.propagate_threads(ap)
    tracer.wrap(merge_engine, "ties_merge", "ties")
    tracer.wrap(merge_engine, "task_arithmetic", "task")
    tracer.wrap(merge_engine, "model_stock", "stock")
    tracer.wrap(merge_engine, "moerges_fuse", "moerges")
    tracer.wrap(tensor_store, "load_checkpoint", "load", file_bytes(0))
    tracer.wrap(tensor_store, "save_checkpoint", "save", file_bytes(1))
    tracer.wrap(backends.LocalReference, "complete", "local_complete")
    tracer.wrap(backends.LocalReference, "score_options", "score_options")
    tracer.wrap(backends.RemoteChat, "complete", "remote", completed)
    tracer.wrap(data_synth, "self_judge_refine", "judge", rounds)
    tracer.wrap(data_synth, "render_template", "render")
    tracer.wrap(data_synth.StepStore, "__init__", "store_load")
    tracer.wrap(data_synth, "load_synth_records", "records_load")

    get_or_call = data_synth.StepStore.get_or_call

    def traced_get_or_call(store, query_id, continent, step, fn):
        ran = []

        def call():
            ran.append(True)
            return fn()

        span = tracer.open("store")
        try:
            return get_or_call(store, query_id, continent, step, call)
        finally:
            tracer.close(span)
            span.counts["appends" if ran else "hits"] = 1

    tracer.patch(data_synth.StepStore, "get_or_call", traced_get_or_call)


#: per-layer metrics that are ratios or means, so not divided per step
NOT_PER_STEP = {"forward_tokens_per_decoded_token", "draft_overlap", "judge_rounds_mean"}


def layer_metrics(stats, extras: dict[str, float], steps: int) -> dict[str, float]:
    """Per-layer figures from the spans of the timed phases.

    Times are inclusive of nested spans except ``update_s`` and ``store_s``,
    which are self times. Counts and times are per step.
    """
    decoded = stats.count("decode", "decoded")
    draft_wall = stats.total("draft")
    judges = stats.calls("judge")
    raw = {
        "forward_s": stats.total("forward"),
        "forward_calls": stats.calls("forward"),
        "forward_tokens": stats.count("forward", "tokens"),
        "backward_s": stats.total("backward"),
        "backward_calls": stats.calls("backward"),
        "decode_s": stats.total("decode"),
        "decoded_tokens": decoded,
        "forward_tokens_per_decoded_token": (
            stats.count("forward", "tokens") / decoded if decoded else 0.0
        ),
        "view_builds": stats.calls("view_build"),
        "view_build_s": stats.total("view_build"),
        "margin_s": stats.total("margin"),
        "update_s": stats.self_total("train"),
        "draft_s": draft_wall,
        "regulate_s": stats.total("regulate"),
        "final_s": stats.total("final"),
        "meta_setup_s": stats.total("meta_setup"),
        "draft_overlap": (
            stats.child_total("draft", "local_complete") / draft_wall if draft_wall else 0.0
        ),
        "route_calls": stats.calls("route"),
        "route_s": stats.total("route"),
        "fuse_calls": stats.calls("fuse"),
        "fuse_s": stats.total("fuse"),
        "ties_s": stats.total("ties"),
        "task_s": stats.total("task"),
        "stock_s": stats.total("stock"),
        "moerges_s": stats.total("moerges"),
        "load_s": stats.total("load"),
        "load_bytes": stats.count("load", "bytes"),
        "save_s": stats.total("save"),
        "save_bytes": stats.count("save", "bytes"),
        "local_complete_s": stats.total("local_complete"),
        "score_options_s": stats.total("score_options"),
        "remote_calls": stats.calls("remote"),
        "remote_s": stats.total("remote"),
        "remote_requests": extras.get("remote_requests", 0.0),
        "remote_retries": extras.get("remote_requests", 0.0) - stats.count("remote", "ok"),
        "remote_bytes": extras.get("remote_bytes", 0.0),
        "stub_s": extras.get("stub_s", 0.0),
        "store_appends": stats.count("store", "appends"),
        "store_hits": stats.count("store", "hits"),
        "store_s": stats.self_total("store"),
        "judge_rounds_mean": stats.count("judge", "rounds") / judges if judges else 0.0,
        "resume_load_s": stats.total("store_load") + stats.total("records_load"),
        "render_calls": stats.calls("render"),
        "render_s": stats.total("render"),
    }
    return {
        name: float(value) if name in NOT_PER_STEP or not steps else value / steps
        for name, value in raw.items()
    }
