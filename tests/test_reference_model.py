import tracemalloc

import numpy as np
import pytest

from palette.align_trainer import PreferenceRecord, loss_and_grads, mean_margin
from palette.backends import LocalReference
from palette.common import CONTINENTS
from palette.errors import TooLong
from palette.gate_router import init_gate, route_prompt
from palette import reference_model
from palette.reference_model import (
    BOS,
    EOS,
    SEP,
    TILE,
    ModelConfig,
    TinyTransformer,
    encode_pair,
    init_model,
)
from palette.templates import render_template
from palette.tensor_store import load_checkpoint, save_checkpoint

from helpers import FIXTURE_RECORDS, forward, raises_code, tiny_config, tiny_model, tokenize
from oracles import (bf_forward_trace, bf_forward_trace_untiled, bf_greedy_decode, bf_logprob_dlogits, grad_check,
                     logprob_trace, sequence_logprob)


def test_config_validation():
    with raises_code("bad_config"):
        ModelConfig(d_model=63, n_heads=4).validate()
    with raises_code("bad_config"):
        ModelConfig(n_layers=0).validate()
    with raises_code("bad_config"):
        ModelConfig(vocab_size=100).validate()
    with raises_code("bad_config", match="seed must be >= 0, got -1"):
        ModelConfig(seed=-1).validate()
    with raises_code("bad_config", match="n_heads must be an integer, got bool"):
        ModelConfig(d_model=16, n_heads=True).validate()
    ModelConfig().validate()


def test_init_is_deterministic():
    cfg = tiny_config()
    assert init_model(cfg) == init_model(cfg)


def test_init_seed_sensitivity():
    a = init_model(tiny_config(seed=1))
    b = init_model(tiny_config(seed=2))
    assert a != b


def test_init_names_follow_convention():
    params = tiny_model()
    assert "layer0.attn.q" in params
    assert "layer0.ffn.w_in" in params
    assert "embed.tok" in params and "head.out" in params
    assert "final_ln.gain" in params


def test_tokenize_empty_string():
    assert tokenize("") == [BOS, EOS]


def test_tokenize_ascii_identity():
    assert tokenize("A") == [BOS, 65, EOS]


def test_tokenize_too_long():
    with pytest.raises(TooLong):
        tokenize("x" * 300, max_seq=256)


def test_encode_pair_layout():
    prompt, cont = encode_pair("ab", "c", max_seq=64)
    assert prompt == [BOS, 97, 98, SEP]
    assert cont == [99, EOS]


def test_forward_shapes_and_determinism():
    params = tiny_model()
    hidden, logits = forward(params, [BOS])
    assert hidden.shape == (1, 16) and logits.shape == (1, 260)
    assert np.isfinite(hidden).all() and np.isfinite(logits).all()
    h2, l2 = forward(params, [BOS])
    assert np.array_equal(hidden, h2) and np.array_equal(logits, l2)


def test_forward_fuzz_finite_and_normalizable():
    params = tiny_model()
    model = TinyTransformer.from_checkpoint(params)
    rng = np.random.default_rng(99)
    for _ in range(100):
        length = int(rng.integers(1, 40))
        tokens = [BOS] + list(rng.integers(0, 260, length - 1))
        _, logits = forward(params, tokens)
        assert np.isfinite(logits).all()
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        sums = probs.sum(axis=-1)
        assert np.all(sums > 0) and np.isfinite(sums).all()


def test_forward_too_long_and_empty():
    params = tiny_model()
    with pytest.raises(TooLong):
        forward(params, [BOS] * 200)
    with pytest.raises(ValueError):
        forward(params, [])


def test_sequence_logprob_nonpositive():
    model = TinyTransformer.from_checkpoint(tiny_model())
    rng = np.random.default_rng(3)
    for _ in range(10):
        prompt = [BOS] + list(rng.integers(0, 256, 5))
        cont = list(rng.integers(0, 256, 6))
        assert sequence_logprob(model, prompt, cont) <= 0.0


def test_sequence_logprob_chain_rule():
    model = TinyTransformer.from_checkpoint(tiny_model())
    rng = np.random.default_rng(17)
    for _ in range(20):
        prompt = [BOS] + list(rng.integers(0, 256, int(rng.integers(1, 8))))
        c1 = list(rng.integers(0, 256, int(rng.integers(1, 8))))
        c2 = list(rng.integers(0, 256, int(rng.integers(1, 8))))
        lhs = sequence_logprob(model, prompt, c1 + c2)
        rhs = sequence_logprob(model, prompt, c1) + sequence_logprob(model, prompt + c1, c2)
        assert abs(lhs - rhs) < 1e-5


def test_sequence_logprob_empty_continuation():
    with raises_code("empty_continuation"):
        sequence_logprob(TinyTransformer.from_checkpoint(tiny_model()), [BOS], [])


def test_mean_hidden_finite_norm():
    model = TinyTransformer.from_checkpoint(tiny_model())
    rng = np.random.default_rng(23)
    for _ in range(25):
        tokens = [BOS] + list(rng.integers(0, 256, int(rng.integers(1, 30))))
        pooled = model.mean_hidden(tokens)
        assert pooled.shape == (16,)
        assert np.isfinite(np.linalg.norm(pooled))


def test_encode_prompt_deterministic():
    model = TinyTransformer.from_checkpoint(tiny_model())
    a = model.mean_hidden(tokenize("the same text", model.cfg.max_seq))
    b = model.mean_hidden(tokenize("the same text", model.cfg.max_seq))
    assert np.array_equal(a, b)


def test_params_round_trip_through_store(tmp_path):
    params = tiny_model()
    path = tmp_path / "model.st"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded == params
    # still forwardable with identical outputs
    h1, l1 = forward(params, tokenize("hi", 96))
    h2, l2 = forward(loaded, tokenize("hi", 96))
    assert np.array_equal(l1, l2)


def test_greedy_decode_deterministic_and_stops():
    model = TinyTransformer.from_checkpoint(tiny_model())
    prompt = tokenize("ab", 96)[:-1] + [SEP]
    out1 = model.greedy_decode(prompt, max_new_tokens=10)
    out2 = model.greedy_decode(prompt, max_new_tokens=10)
    assert out1 == out2
    assert len(out1) <= 10


def _decode_model(seed, max_seq=64):
    return TinyTransformer.from_checkpoint(tiny_model(seed=seed, max_seq=max_seq, n_layers=2))


def _random_prompt(rng, length):
    return [BOS] + [int(t) for t in rng.integers(0, 256, length - 1)]


def test_greedy_decode_matches_full_forward_oracle():
    rng = np.random.default_rng(5)
    for seed in (0, 1, 2, 3):
        model = _decode_model(seed)
        max_seq = model.cfg.max_seq
        for length in (1, 7, 30, max_seq - 1, max_seq):
            prompt = _random_prompt(rng, length)
            for n in (0, 1, 48):
                assert model.greedy_decode(prompt, n) == bf_greedy_decode(model, prompt, n)


def test_greedy_decode_stops_at_eos():
    model = _decode_model(1)
    prompt = _random_prompt(np.random.default_rng(2), 9)
    free = model.greedy_decode(prompt, 48)
    assert len(free) == 48 and EOS not in free

    # EOS gets twice the head column of the token decoded k-th, so it beats
    # that token wherever it wins with a positive logit: here first at k.
    for k in (0, 5):
        stopped = TinyTransformer(model.cfg, {name: arr.copy() for name, arr in model.params.items()})
        stopped.params["head.out"][:, EOS] = 2.0 * stopped.params["head.out"][:, free[k]]
        out = stopped.greedy_decode(prompt, 48)
        assert out == bf_greedy_decode(stopped, prompt, 48)
        assert out == free[:k]


def _record_extend(monkeypatch):
    calls = []
    extend = TinyTransformer._extend

    def recording_extend(self, tokens, pos, keys, values, rows=1, trace=None):
        hidden = extend(self, tokens, pos, keys, values, rows, trace)
        calls.append((list(tokens), pos, hidden))
        return hidden

    monkeypatch.setattr(TinyTransformer, "_extend", recording_extend)
    return calls


def test_cached_step_logits_match_full_forward(monkeypatch):
    model = _decode_model(2)
    prompt = _random_prompt(np.random.default_rng(3), 11)
    calls = _record_extend(monkeypatch)
    out = model.greedy_decode(prompt, 40)
    assert len(calls) == len(out) == 40
    full = prompt + out
    for tokens, pos, hidden in list(calls):
        logits = (hidden @ model.params["head.out"])[0]
        expected = model.forward_trace(full[: pos + len(tokens)]).logits[-1]
        assert np.abs(logits - expected).max() <= 1e-12


def test_greedy_decode_runs_one_forward_pass(monkeypatch):
    model = _decode_model(0, max_seq=96)
    prompt = _random_prompt(np.random.default_rng(4), 30)
    calls = _record_extend(monkeypatch)

    def no_forward_trace(self, tokens):
        raise AssertionError("greedy_decode must not build a Trace")

    monkeypatch.setattr(TinyTransformer, "forward_trace", no_forward_trace)
    for n in (1, 2, 48, 500):
        calls.clear()
        out = model.greedy_decode(prompt, n)
        assert len(out) == min(n, model.cfg.max_seq - len(prompt))  # no EOS
        assert [(tokens, pos) for tokens, pos, _ in calls] == [(prompt, 0)] + [
            ([tok], len(prompt) + k) for k, tok in enumerate(out[:-1])
        ]


def test_greedy_decode_matches_the_oracle_at_the_draft_shape():
    # The eval benchmark's drafts: five default-config experts, each given
    # a draft prompt cut to 208 tokens, each decoding all 48 tokens.
    for seed, continent in zip(range(1, 6), CONTINENTS):
        model = TinyTransformer.from_checkpoint(init_model(ModelConfig(seed=seed)))
        query = "How do you feel about public transport where you live? (item 0)"
        text = render_template("draft", continent=continent, country="Japan", query=query)
        prompt = [BOS] + list(text.encode("utf-8")[-206:]) + [SEP]
        out = model.greedy_decode(prompt, 48)
        assert len(prompt) == 208 and len(out) == 48
        assert out == bf_greedy_decode(model, prompt, 48)


def test_greedy_decode_holds_no_full_trace():
    # A 208-token prompt's Trace takes about 8 MB; the K/V cache 0.26 MB and
    # the prefill's largest temporaries, the attention scores, 1.4 MB.
    model = TinyTransformer.from_checkpoint(init_model(ModelConfig(seed=1)))
    prompt = _random_prompt(np.random.default_rng(6), 208)
    model.greedy_decode(prompt, 48)  # builds the cached causal mask
    tracemalloc.start()
    try:
        model.greedy_decode(prompt, 48)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5_000_000


def test_inference_builds_no_trace(monkeypatch):
    params = tiny_model()
    model = TinyTransformer.from_checkpoint(params)
    tokens = tokenize("a prompt", model.cfg.max_seq)

    def no_forward_trace(self, tokens):
        raise AssertionError("only training builds a Trace")

    monkeypatch.setattr(TinyTransformer, "forward_trace", no_forward_trace)
    assert len(LocalReference(params).score_options("Pick one.", ["yes", "no", ""])) == 3
    assert np.isfinite(mean_margin(model, FIXTURE_RECORDS))
    assert abs(sum(route_prompt(params, init_gate(params), "You are answering for NZL.")) - 1.0) < 1e-9
    assert model.mean_hidden(tokens).shape == (16,)
    assert forward(params, tokens)[1].shape == (len(tokens), 260)


def test_training_traces_run_the_inference_kernel(monkeypatch):
    # One forward implementation: a Trace is recorded by `_extend` itself,
    # over every row, and only training asks for one.
    params = tiny_model()
    model = TinyTransformer.from_checkpoint(params)
    calls = []
    extend = TinyTransformer._extend

    def recording_extend(self, tokens, pos, keys, values, rows=1, trace=None):
        calls.append((list(tokens), pos, rows, trace is not None))
        return extend(self, tokens, pos, keys, values, rows, trace)

    monkeypatch.setattr(TinyTransformer, "_extend", recording_extend)
    record = PreferenceRecord(query="a query", preferred="yes", rejected=("", "ab", "c", "defg"))
    loss_and_grads(model, record)
    prompt = [BOS] + list(b"a query") + [SEP]
    replies = [list(r.encode()) for r in ("yes", "ab", "c", "defg")]  # the empty reply is scored from the prompt
    assert calls == [(prompt, 0, len(prompt), True)] + [(r, len(prompt), len(r), True) for r in replies]

    calls.clear()
    mean_margin(model, [record])
    LocalReference(params).score_options("Pick one.", ["yes", "no"])
    model.greedy_decode(prompt, 4)
    assert calls and not any(traced for *_, traced in calls)


def test_sequence_logprob_holds_no_trace():
    # One eval option score: a 200-token prompt and a 51-token option. Its
    # Trace would take about 10 MB.
    model = TinyTransformer.from_checkpoint(init_model(ModelConfig(seed=1)))
    rng = np.random.default_rng(9)
    prompt, cont = _random_prompt(rng, 200), [int(t) for t in rng.integers(0, 256, 51)]
    sequence_logprob(model, prompt, cont)  # builds the cached causal mask
    tracemalloc.start()
    try:
        sequence_logprob(model, prompt, cont)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6_000_000


def test_backward_adds_into_the_callers_gradients():
    # Repeated tokens scatter several rows into one embed.tok row; adding into
    # a filled buffer must equal adding a zero-started pass, bit for bit.
    model = TinyTransformer.from_checkpoint(tiny_model())
    trace = model.forward_trace([BOS, 5, 7, 5, 5, 9, 7])
    dlogits = np.random.default_rng(0).standard_normal(trace.logits.shape)
    fresh = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    trace.backward(dlogits, fresh)
    rng = np.random.default_rng(1)
    start = {name: rng.standard_normal(arr.shape) for name, arr in model.params.items()}
    grads = {name: arr.copy() for name, arr in start.items()}
    trace.backward(dlogits, grads)
    for name in start:
        assert np.array_equal(grads[name], start[name] + fresh[name]), name


def _same_bytes(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [1.0, 25.0])
@pytest.mark.parametrize("d_model, n_heads", [(64, 4), (24, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_in_place_kernels_match_the_frozen_model_byte_for_byte(seed, d_model, n_heads, scale):
    # The default head size, 16, scales scores by an exact 1/4, so a second
    # shape with head size 8 checks the division by an inexact sqrt(8).
    # Scale 25 turns the init's flat attention and near-linear GELU into
    # peaked softmax rows that underflow and a saturating tanh.
    cfg = ModelConfig(d_model=d_model, n_heads=n_heads, seed=seed)
    model = TinyTransformer.from_checkpoint(init_model(cfg))
    for name, arr in model.params.items():
        if not name.endswith(".gain"):
            arr *= scale
    max_seq = model.cfg.max_seq
    rng = np.random.default_rng(seed)
    for length in (1, 2, 7, 88, 208, max_seq - 1, max_seq):
        tokens = _random_prompt(rng, length)
        got, want = model.forward_trace(tokens), bf_forward_trace(model, tokens)
        assert _same_bytes(got.logits, want.logits) and _same_bytes(got.hidden, want.hidden)
        for layer, frozen in zip(got.layers, want.layers, strict=True):
            assert _same_bytes(layer.probs, frozen.probs)

        dlogits = rng.standard_normal(got.logits.shape)
        grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
        frozen_grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
        got.backward(dlogits, grads)
        want.backward(dlogits, frozen_grads)
        for name in grads:
            assert _same_bytes(grads[name], frozen_grads[name]), (length, name)

        if length >= 2:
            prompt_len, coeff = length // 2, float(rng.normal())
            rows = slice(prompt_len - 1, length - 1)
            assert _same_bytes(
                reference_model._continuation_dlogits(got.logits[rows], tokens[prompt_len:], coeff),
                bf_logprob_dlogits(want, prompt_len, tokens[prompt_len:], coeff)[rows],
            )
        assert model.greedy_decode(tokens, 4) == bf_greedy_decode(model, tokens, 4)


def _rel_diff(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("scale", [1.0, 25.0])
@pytest.mark.parametrize("n_heads", [4, 8])  # head sizes 16 and 8
@pytest.mark.parametrize("seed", [0, 1])
def test_tiled_attention_stays_within_a_bound_of_untiled_attention(seed, n_heads, scale):
    # A row tile sums its softmax and its product with V over fewer columns
    # than the whole block, so passes longer than TILE may move in the last bits.
    model = TinyTransformer.from_checkpoint(init_model(ModelConfig(n_heads=n_heads, seed=seed)))
    for name, arr in model.params.items():
        if not name.endswith(".gain"):
            arr *= scale
    rng = np.random.default_rng(seed)
    for length in (88, 129, 208, model.cfg.max_seq - 1, model.cfg.max_seq):
        tokens = _random_prompt(rng, length)
        got, want = model.forward_trace(tokens), bf_forward_trace_untiled(model, tokens)
        assert _rel_diff(got.logits, want.logits) <= 1e-12
        for layer, untiled in zip(got.layers, want.layers, strict=True):
            assert np.abs(layer.probs - untiled.probs).max() <= 1e-12

        dlogits = rng.standard_normal(got.logits.shape)
        grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
        untiled_grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
        got.backward(dlogits, grads)
        want.backward(dlogits, untiled_grads)
        for name in grads:
            assert _rel_diff(grads[name], untiled_grads[name]) <= 1e-12, (length, name)


@pytest.mark.parametrize(
    "length, tile_rows",
    [(TILE - 1, [TILE - 1]), (TILE, [TILE]), (TILE + 1, [TILE + 1]), (2 * TILE + 1, [TILE, TILE + 1]), (256, [TILE] * 8)],
)
def test_attention_tiles_at_the_tile_edges(monkeypatch, length, tile_rows):
    params = init_model(ModelConfig(n_heads=8, seed=length))
    model = TinyTransformer.from_checkpoint(params)
    tokens = _random_prompt(np.random.default_rng(length), length)
    tiles = []
    softmax = reference_model._softmax_rows_in_place

    def recording_softmax(z):
        tiles.append(z.shape)
        return softmax(z)

    monkeypatch.setattr(reference_model, "_softmax_rows_in_place", recording_softmax)
    trace = model.forward_trace(tokens)
    # No tile has one row, and each sees the keys up to its last row.
    assert [rows for _, rows, _ in tiles] == tile_rows * model.cfg.n_layers
    assert [seen for *_, seen in tiles] == list(np.cumsum(tile_rows)) * model.cfg.n_layers
    for layer in trace.layers:
        assert not np.triu(layer.probs, k=1).any()
    hidden, _ = forward(params, tokens)
    assert _same_bytes(hidden, trace.hidden)

    # Continuations at pos > 0 that span tiles, as option scores make them.
    monkeypatch.undo()
    for prompt_len in [n for n in (1, TILE - 1, TILE + 1) if n < length]:
        cont = [int(t) for t in np.random.default_rng(prompt_len).integers(0, 260, length - prompt_len)]
        want = sequence_logprob(model, tokens[:prompt_len], cont)
        assert abs(model.sequence_logprobs(tokens[:prompt_len], [cont])[0] - want) <= 1e-12 * abs(want)


def test_grad_check_with_replies_longer_than_a_tile():
    # Each reply is traced at pos > 0, after the shared prompt, in two or three row tiles.
    record = PreferenceRecord(
        query="what do guests bring to a shared meal?",
        preferred="a dish to share, and something to drink for the table",
        rejected=("flowers for the host, chosen with some care", "nothing at all, since the host plans the meal",
                  "a small gift from home for the host's family", "their appetite, and some stories to tell"),
    )
    assert min(len(r) for r in (record.preferred, *record.rejected)) > TILE + 1
    params = tiny_model(n_layers=2)
    assert grad_check(params, record, lam=0.1, epsilon=1e-4, n_samples=60, seed=5) < 1e-3


def test_cached_causal_mask_is_read_only_and_sized_per_max_seq(monkeypatch):
    masks = []
    causal_mask = reference_model._causal_mask

    def recording_mask(max_seq):
        masks.append(causal_mask(max_seq))
        return masks[-1]

    monkeypatch.setattr(reference_model, "_causal_mask", recording_mask)
    small = TinyTransformer.from_checkpoint(tiny_model(max_seq=64))
    large = TinyTransformer.from_checkpoint(tiny_model(max_seq=96))
    tokens = _random_prompt(np.random.default_rng(8), 64)
    small.forward_trace(tokens)
    large.forward_trace(tokens)
    assert [m.shape for m in masks] == [(64, 64), (96, 96)]

    mask = masks[0]
    with pytest.raises(ValueError, match="read-only"):
        mask[0, 1] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        mask[:8, :8] += 1.0
    assert np.array_equal(mask, np.triu(np.full((64, 64), -np.inf), k=1))
    for model in (small, large):
        assert _same_bytes(model.forward_trace(tokens).logits, bf_forward_trace(model, tokens).logits)
    assert masks[2] is mask and masks[3] is masks[1]


@pytest.mark.parametrize("d_model, n_heads", [(64, 4), (24, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_full_row_passes_match_forward_trace_byte_for_byte(seed, d_model, n_heads):
    params = init_model(ModelConfig(d_model=d_model, n_heads=n_heads, seed=seed))
    model = TinyTransformer.from_checkpoint(params)
    rng = np.random.default_rng(seed)
    for length in (1, 2, 7, 88, 208, model.cfg.max_seq):
        tokens = _random_prompt(rng, length)
        trace = model.forward_trace(tokens)
        hidden, logits = forward(params, tokens)
        assert _same_bytes(hidden, trace.hidden) and _same_bytes(logits, trace.logits)
        assert _same_bytes(model.mean_hidden(tokens), trace.hidden.mean(axis=0))


@pytest.mark.parametrize("scale", [1.0, 25.0])
@pytest.mark.parametrize("n_heads", [4, 8])  # head sizes 16 and 8
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sequence_logprob_matches_logprob_trace(seed, n_heads, scale):
    model = TinyTransformer.from_checkpoint(init_model(ModelConfig(n_heads=n_heads, seed=seed)))
    for name, arr in model.params.items():
        if not name.endswith(".gain"):
            arr *= scale
    max_seq = model.cfg.max_seq
    rng = np.random.default_rng(seed)
    for prompt_len, cont_len in ((1, 1), (9, 1), (30, 17), (200, 51), (1, max_seq - 1), (max_seq - 1, 1)):
        prompt = _random_prompt(rng, prompt_len)
        cont = [int(t) for t in rng.integers(0, 260, cont_len)]
        want, _ = logprob_trace(model, prompt, cont)
        assert abs(sequence_logprob(model, prompt, cont) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("seed", [0, 1])
def test_shared_prompt_scores_match_whole_sequences(seed):
    # Each continuation overwrites the cache after the prompt; a longer one
    # before a shorter one leaves rows past the shorter one's end unread.
    model = TinyTransformer.from_checkpoint(init_model(ModelConfig(n_heads=8, seed=seed)))
    rng = np.random.default_rng(seed)
    for prompt_len, cont_lens in ((1, (1, 5)), (30, (17, 1, 40, 3)), (200, (56, 2)), (255, (1, 1))):
        prompt = _random_prompt(rng, prompt_len)
        conts = [[int(t) for t in rng.integers(0, 260, n)] for n in cont_lens]
        got = model.sequence_logprobs(prompt, conts)
        for score, cont in zip(got, conts, strict=True):
            want = sequence_logprob(model, prompt, cont)
            assert abs(score - want) <= 1e-12 * abs(want)
    with pytest.raises(TooLong):
        model.sequence_logprobs(prompt, [[5], [5, 6]])
    with raises_code("empty_continuation"):
        model.sequence_logprobs(prompt, [[]])
