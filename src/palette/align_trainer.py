"""Preference alignment for the reference model: a supervised term on the
preferred response plus a contrastive term over the four cross-continent
rejections, trained with deterministic momentum SGD.

Loss per record:

    sft         = mean token NLL of the preferred response given the query
    ratio_k     = score(preferred) - score(rejected_k)
    contrastive = sum_k -log sigmoid(ratio_k)
    total       = sft + lambda * contrastive

`score` is the length-normalized sequence log-probability by default
(``length_normalize=False`` uses raw sums), or the log-odds of the
length-normalized probability with ``true_odds=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .common import fingerprint, iter_jsonl, write_jsonl
from .errors import EmptyDataset, WrongRejectionCount
from .reference_model import TinyTransformer, encode_pair
from .tensor_store import Checkpoint

N_REJECTED = 4


@dataclass(frozen=True)
class PreferenceRecord:
    query: str
    preferred: str
    rejected: tuple[str, ...]
    continent: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rejected", tuple(self.rejected))
        if len(self.rejected) != N_REJECTED:
            raise WrongRejectionCount(
                f"expected {N_REJECTED} rejected responses, got {len(self.rejected)}"
            )

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "preferred": self.preferred,
            "rejected": list(self.rejected),
            "continent": self.continent,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PreferenceRecord":
        return cls(
            query=obj["query"],
            preferred=obj["preferred"],
            rejected=tuple(obj["rejected"]),
            continent=obj.get("continent", ""),
        )


def load_records_jsonl(path) -> list[PreferenceRecord]:
    rows = iter_jsonl(path, required=("query", "preferred", "rejected"))
    return [PreferenceRecord.from_dict(row) for _, row in rows]


def save_records_jsonl(records: Sequence[PreferenceRecord], path) -> None:
    write_jsonl(path, (rec.to_dict() for rec in records))


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.1
    learning_rate: float = 5e-5
    epochs: int = 2
    batch_size: int = 8
    seed: int = 42
    momentum: float = 0.9
    true_odds: bool = False
    length_normalize: bool = True

    def validate(self) -> None:
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


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
        return {
            "epoch_total": self.epoch_total,
            "epoch_sft": self.epoch_sft,
            "epoch_contrastive": self.epoch_contrastive,
            "initial_margin": self.initial_margin,
            "final_margin": self.final_margin,
            "n_records": self.n_records,
            "config_fingerprint": self.config_fingerprint,
        }


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _softplus(x: float) -> float:
    # log(1 + e^x), stable for both signs
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _score_and_slope(lp_sum: float, n_tokens: int, true_odds: bool, length_normalize: bool):
    """Sequence score used inside the contrastive ratio and d(score)/d(lp_sum)."""
    mean = lp_sum / n_tokens
    if true_odds:
        p = math.exp(mean)
        score = mean - math.log1p(-p)
        slope_mean = 1.0 / (1.0 - p)
    else:
        score = mean if length_normalize else lp_sum
        slope_mean = 1.0
    if true_odds or length_normalize:
        return score, slope_mean / n_tokens
    return score, slope_mean


def _as_model(params) -> TinyTransformer:
    return params if isinstance(params, TinyTransformer) else TinyTransformer.from_checkpoint(params)


def _loss_internal(
    model: TinyTransformer,
    record: PreferenceRecord,
    lam: float,
    true_odds: bool,
    length_normalize: bool,
    with_traces: bool,
):
    max_seq = model.cfg.max_seq
    seqs = [(record.query, record.preferred)] + [(record.query, r) for r in record.rejected]
    traces, lps, lens, prompts, conts = [], [], [], [], []
    for query, response in seqs:
        prompt, cont = encode_pair(query, response, max_seq)
        lp, trace = model.logprob_trace(prompt, cont)
        traces.append(trace if with_traces else None)
        lps.append(lp)
        lens.append(len(cont))
        prompts.append(len(prompt))
        conts.append(cont)

    sft = -lps[0] / lens[0]
    score_pref, slope_pref = _score_and_slope(lps[0], lens[0], true_odds, length_normalize)
    ratios, sig = [], []
    for k in range(N_REJECTED):
        score_rej, _ = _score_and_slope(lps[1 + k], lens[1 + k], true_odds, length_normalize)
        r = score_pref - score_rej
        ratios.append(r)
        sig.append(_sigmoid(r))
    contrastive = sum(_softplus(-r) for r in ratios)
    breakdown = LossBreakdown(
        sft=sft,
        contrastive=contrastive,
        total=sft + lam * contrastive,
        per_rejection_ratios=tuple(ratios),
    )
    if not with_traces:
        return breakdown, None

    # d total / d lp_sum for each of the 5 sequences
    coeff_pref = -1.0 / lens[0] + lam * slope_pref * sum(s - 1.0 for s in sig)
    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    for idx, trace in enumerate(traces):
        if idx == 0:
            coeff = coeff_pref
        else:
            _, slope_rej = _score_and_slope(
                lps[idx], lens[idx], true_odds, length_normalize
            )
            coeff = lam * (1.0 - sig[idx - 1]) * slope_rej
        if coeff == 0.0:
            continue
        dlogits = model.logprob_dlogits(trace, prompts[idx], conts[idx], coeff)
        trace.backward(dlogits, grads)
    return breakdown, grads


def orpo_loss(
    params,
    record: PreferenceRecord,
    lam: float = 0.1,
    *,
    true_odds: bool = False,
    length_normalize: bool = True,
) -> LossBreakdown:
    """Loss breakdown for one preference record (no gradients)."""
    model = _as_model(params)
    breakdown, _ = _loss_internal(model, record, lam, true_odds, length_normalize, with_traces=False)
    return breakdown


def loss_and_grads(
    params,
    record: PreferenceRecord,
    lam: float = 0.1,
    *,
    true_odds: bool = False,
    length_normalize: bool = True,
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    model = _as_model(params)
    return _loss_internal(model, record, lam, true_odds, length_normalize, with_traces=True)


def grad_check(
    params,
    record: PreferenceRecord,
    lam: float = 0.1,
    epsilon: float = 1e-4,
    n_samples: int = 60,
    seed: int = 0,
    *,
    true_odds: bool = False,
    length_normalize: bool = True,
) -> float:
    """Max relative error between analytic gradients and central differences
    over randomly sampled parameter coordinates.
    """
    if not (1e-5 <= epsilon <= 1e-2):
        raise ValueError(f"epsilon must lie in [1e-5, 1e-2], got {epsilon}")
    model = _as_model(params).clone()
    _, grads = _loss_internal(model, record, lam, true_odds, length_normalize, with_traces=True)

    names = sorted(model.params)
    sizes = np.array([model.params[n].size for n in names])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(n_samples, total), replace=False)
    offsets = np.cumsum(sizes)

    def loss_at() -> float:
        lb, _ = _loss_internal(model, record, lam, true_odds, length_normalize, with_traces=False)
        return lb.total

    worst = 0.0
    for flat in sorted(int(p) for p in picks):
        ti = int(np.searchsorted(offsets, flat, side="right"))
        name = names[ti]
        local = flat - (offsets[ti - 1] if ti else 0)
        arr = model.params[name].reshape(-1)
        orig = arr[local]
        arr[local] = orig + epsilon
        up = loss_at()
        arr[local] = orig - epsilon
        down = loss_at()
        arr[local] = orig
        numeric = (up - down) / (2.0 * epsilon)
        analytic = float(grads[name].reshape(-1)[local])
        denom = max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def mean_margin(params, dataset: Sequence[PreferenceRecord]) -> float:
    """Mean over records of mean_k (norm. logprob preferred - rejected_k)."""
    model = _as_model(params)
    total = 0.0
    for record in dataset:
        prompt, cont = encode_pair(record.query, record.preferred, model.cfg.max_seq)
        lp_pref = model.sequence_logprob(prompt, cont) / len(cont)
        rej = 0.0
        for r in record.rejected:
            prompt, cont = encode_pair(record.query, r, model.cfg.max_seq)
            rej += model.sequence_logprob(prompt, cont) / len(cont)
        total += lp_pref - rej / N_REJECTED
    return total / len(dataset)


def train(
    params: Checkpoint, dataset: Sequence[PreferenceRecord], cfg: TrainConfig
) -> tuple[Checkpoint, TrainReport]:
    """Momentum SGD over the preference loss; bit-reproducible per seed."""
    cfg.validate()
    if not dataset:
        raise EmptyDataset("training dataset is empty")

    model = _as_model(params).clone()
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
                "momentum": cfg.momentum,
                "true_odds": cfg.true_odds,
                "length_normalize": cfg.length_normalize,
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
                lb, grads = _loss_internal(
                    model,
                    dataset[int(idx)],
                    cfg.lam,
                    cfg.true_odds,
                    cfg.length_normalize,
                    with_traces=True,
                )
                sums["total"] += lb.total
                sums["sft"] += lb.sft
                sums["contrastive"] += lb.contrastive
                for name, g in grads.items():
                    acc[name] += g
            inv = 1.0 / len(batch)
            for name, arr in model.params.items():
                velocity[name] = cfg.momentum * velocity[name] + acc[name] * inv
                arr -= cfg.learning_rate * velocity[name]
        report.epoch_total.append(sums["total"] / n)
        report.epoch_sft.append(sums["sft"] / n)
        report.epoch_contrastive.append(sums["contrastive"] / n)

    report.final_margin = mean_margin(model, dataset)
    return model.to_checkpoint(), report
