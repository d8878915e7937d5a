"""Preference alignment for the reference model: a supervised term on the
preferred response plus a contrastive term over the four cross-continent
rejections, trained with deterministic momentum SGD.

Loss per record:

    sft         = mean token NLL of the preferred response given the query
    ratio_k     = score(preferred) - score(rejected_k)
    contrastive = sum_k -log sigmoid(ratio_k)
    total       = sft + lambda * contrastive

`score` is one of SCORES: the mean token log-probability (``"mean"``, the
default), the summed log-probability (``"sum"``), or the log-odds of the
mean's probability (``"odds"``). Every loss comes from the traced pass that
training backpropagates through.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .common import bad_line, fingerprint, iter_jsonl, write_jsonl
from .errors import PaletteError
from .reference_model import TinyTransformer, _continuation_dlogits, _continuation_logprob, encode_pair
from .tensor_store import Checkpoint

N_REJECTED = 4
MOMENTUM = 0.9  # SGD velocity decay
SCORES = ("mean", "sum", "odds")


@dataclass(frozen=True)
class PreferenceRecord:
    query: str
    preferred: str
    rejected: tuple[str, ...]
    continent: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rejected", tuple(self.rejected))
        if len(self.rejected) != N_REJECTED:
            raise PaletteError(
                "wrong_rejection_count",
                f"expected {N_REJECTED} rejected responses, got {len(self.rejected)}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "PreferenceRecord":
        """TypeError unless the texts are strings and ``rejected`` a list of them."""
        texts = {"query": obj["query"], "preferred": obj["preferred"], "continent": obj.get("continent", "")}
        for key, value in texts.items():
            if not isinstance(value, str):
                raise TypeError(f"{key!r} must be a string, got {type(value).__name__}")
        rejected = obj["rejected"]
        if not isinstance(rejected, list) or not all(isinstance(r, str) for r in rejected):
            raise TypeError("'rejected' must be a list of strings")
        return cls(rejected=tuple(rejected), **texts)


def load_records_jsonl(path) -> list[PreferenceRecord]:
    records = []
    for index, row in iter_jsonl(path, required=("query", "preferred", "rejected")):
        try:
            records.append(PreferenceRecord.from_dict(row))
        except (TypeError, PaletteError) as exc:
            if isinstance(exc, PaletteError) and exc.code != "wrong_rejection_count":
                raise
            raise bad_line(path, index, str(exc)) from exc
    return records


def save_records_jsonl(records: Sequence[PreferenceRecord], path) -> None:
    write_jsonl(path, (rec.to_dict() for rec in records))


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.1
    learning_rate: float = 5e-5
    epochs: int = 2
    batch_size: int = 8
    seed: int = 42
    score: str = "mean"

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:  # also NaN
            raise ValueError(f"lambda must be >= 0 and finite, got {self.lam}")
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be >= 0 and finite, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.score not in SCORES:
            raise ValueError(f"score must be one of {SCORES}, got {self.score!r}")


@dataclass(frozen=True)
class LossBreakdown:
    sft: float
    contrastive: float
    total: float
    per_rejection_ratios: tuple[float, ...]


@dataclass
class TrainReport:
    epoch_total: list[float] = field(default_factory=list)
    epoch_sft: list[float] = field(default_factory=list)
    epoch_contrastive: list[float] = field(default_factory=list)
    initial_margin: float = 0.0
    final_margin: float = 0.0
    n_records: int = 0
    config_fingerprint: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _softplus(x: float) -> float:
    # log(1 + e^x), stable for both signs
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _score_and_slope(lp_sum: float, n_tokens: int, score: str):
    """Sequence score used inside the contrastive ratio and d(score)/d(lp_sum)."""
    mean = lp_sum / n_tokens
    if score == "mean":
        return mean, 1.0 / n_tokens
    if score == "sum":
        return lp_sum, 1.0
    if score == "odds":
        p = math.exp(mean)
        return mean - math.log1p(-p), 1.0 / (1.0 - p) / n_tokens
    raise ValueError(f"score must be one of {SCORES}, got {score!r}")


def _encode_record(record: PreferenceRecord, max_seq: int, index: int | None = None):
    """The shared prompt BOS q SEP and the five continuations r EOS, preferred first.
    TooLong names the record's index in the dataset and the field of the response."""
    names = ["preferred"] + [f"rejected[{k}]" for k in range(N_REJECTED)]
    pairs = [
        encode_pair(record.query, r, max_seq, record=index, field=name)
        for r, name in zip((record.preferred, *record.rejected), names)
    ]
    return pairs[0][0], [cont for _, cont in pairs]


def loss_and_grads(
    model: TinyTransformer,
    record: PreferenceRecord,
    lam: float = 0.1,
    *,
    score: str = "mean",
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    prompt, conts = _encode_record(record, model.cfg.max_seq)
    # One trace of the prompt; each reply's first token is scored from its last row.
    prefix = model.forward_trace(prompt)
    traces = [model.forward_trace(c[:-1], prefix) if len(c) > 1 else None for c in conts]
    logits = [prefix.logits[-1:] if t is None else np.concatenate([prefix.logits[-1:], t.logits]) for t in traces]
    lps = [_continuation_logprob(rows, c) for rows, c in zip(logits, conts)]
    lens = [len(c) for c in conts]

    sft = -lps[0] / lens[0]
    scored = [_score_and_slope(lp, n, score) for lp, n in zip(lps, lens)]
    score_pref, slope_pref = scored[0]
    ratios = [score_pref - score_rej for score_rej, _ in scored[1:]]
    sig = [_sigmoid(r) for r in ratios]
    contrastive = sum(_softplus(-r) for r in ratios)
    breakdown = LossBreakdown(
        sft=sft,
        contrastive=contrastive,
        total=sft + lam * contrastive,
        per_rejection_ratios=tuple(ratios),
    )

    # d total / d lp_sum for each of the 5 sequences
    coeff_pref = -1.0 / lens[0] + lam * slope_pref * sum(s - 1.0 for s in sig)
    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    d_prompt = np.zeros_like(prefix.logits)
    for idx, trace in enumerate(traces):
        coeff = coeff_pref if idx == 0 else lam * (1.0 - sig[idx - 1]) * scored[idx][1]
        if coeff == 0.0:
            continue
        dlogits = _continuation_dlogits(logits[idx], conts[idx], coeff)
        d_prompt[-1] += dlogits[0]
        if trace is not None:
            trace.backward(dlogits[1:], grads)
    prefix.backward(d_prompt, grads)
    return breakdown, grads


def mean_margin(model: TinyTransformer, dataset: Sequence[PreferenceRecord]) -> float:
    """Mean over records of mean_k (norm. logprob preferred - rejected_k)."""
    total = 0.0
    for index, record in enumerate(dataset):
        prompt, conts = _encode_record(record, model.cfg.max_seq, index)
        lps = [lp / len(c) for lp, c in zip(model.sequence_logprobs(prompt, conts), conts)]
        total += lps[0] - sum(lps[1:]) / N_REJECTED
    return total / len(dataset)


def train(
    params: Checkpoint, dataset: Sequence[PreferenceRecord], cfg: TrainConfig
) -> tuple[Checkpoint, TrainReport]:
    """Momentum SGD over the preference loss; bit-reproducible per seed."""
    if not dataset:
        raise PaletteError("empty_dataset", "training dataset is empty")

    model = TinyTransformer.from_checkpoint(params)  # a float64 copy, trained in place
    velocity = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    rng = np.random.default_rng(cfg.seed)
    report = TrainReport(
        n_records=len(dataset),
        config_fingerprint=fingerprint(
            {
                "lam": cfg.lam,
                "lr": cfg.learning_rate,
                "epochs": cfg.epochs,
                "batch_size": cfg.batch_size,
                "seed": cfg.seed,
                "momentum": MOMENTUM,
                "true_odds": cfg.score == "odds",
                "length_normalize": cfg.score != "sum",
            }
        ),
    )
    report.initial_margin = mean_margin(model, dataset)

    n = len(dataset)
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        sums = {"total": 0.0, "sft": 0.0, "contrastive": 0.0}
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            acc = {name: np.zeros_like(arr) for name, arr in model.params.items()}
            for idx in batch:
                lb, grads = loss_and_grads(model, dataset[int(idx)], cfg.lam, score=cfg.score)
                sums["total"] += lb.total
                sums["sft"] += lb.sft
                sums["contrastive"] += lb.contrastive
                for name, g in grads.items():
                    acc[name] += g
            inv = 1.0 / len(batch)
            for name, arr in model.params.items():
                velocity[name] = MOMENTUM * velocity[name] + acc[name] * inv
                arr -= cfg.learning_rate * velocity[name]
        report.epoch_total.append(sums["total"] / n)
        report.epoch_sft.append(sums["sft"] / n)
        report.epoch_contrastive.append(sums["contrastive"] / n)

    report.final_margin = mean_margin(model, dataset)
    return model.to_checkpoint(), report
