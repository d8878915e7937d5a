import numpy as np
import pytest

from palette.errors import BadConfig, EmptyContinuation, TooLong
from palette.reference_model import (
    BOS,
    EOS,
    SEP,
    ModelConfig,
    TinyTransformer,
    encode_pair,
    encode_prompt,
    forward,
    init_model,
    sequence_logprob,
    tokenize,
)
from palette.tensor_store import load_checkpoint, save_checkpoint

from helpers import tiny_config, tiny_model
from oracles import bf_greedy_decode


def test_config_validation():
    with pytest.raises(BadConfig):
        ModelConfig(d_model=63, n_heads=4).validate()
    with pytest.raises(BadConfig):
        ModelConfig(n_layers=0).validate()
    with pytest.raises(BadConfig):
        ModelConfig(vocab_size=100).validate()
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
        _, logits = model.hidden_and_logits(tokens)
        assert np.isfinite(logits).all()
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        sums = probs.sum(axis=-1)
        assert np.all(sums > 0) and np.isfinite(sums).all()


def test_forward_too_long_and_empty():
    model = TinyTransformer.from_checkpoint(tiny_model())
    with pytest.raises(TooLong):
        model.hidden_and_logits([BOS] * 200)
    with pytest.raises(ValueError):
        model.hidden_and_logits([])


def test_sequence_logprob_nonpositive():
    params = tiny_model()
    rng = np.random.default_rng(3)
    for _ in range(10):
        prompt = [BOS] + list(rng.integers(0, 256, 5))
        cont = list(rng.integers(0, 256, 6))
        assert sequence_logprob(params, prompt, cont) <= 0.0


def test_sequence_logprob_chain_rule():
    model = TinyTransformer.from_checkpoint(tiny_model())
    rng = np.random.default_rng(17)
    for _ in range(20):
        prompt = [BOS] + list(rng.integers(0, 256, int(rng.integers(1, 8))))
        c1 = list(rng.integers(0, 256, int(rng.integers(1, 8))))
        c2 = list(rng.integers(0, 256, int(rng.integers(1, 8))))
        lhs = model.sequence_logprob(prompt, c1 + c2)
        rhs = model.sequence_logprob(prompt, c1) + model.sequence_logprob(prompt + c1, c2)
        assert abs(lhs - rhs) < 1e-5


def test_sequence_logprob_empty_continuation():
    with pytest.raises(EmptyContinuation):
        sequence_logprob(tiny_model(), [BOS], [])


def test_mean_hidden_finite_norm():
    model = TinyTransformer.from_checkpoint(tiny_model())
    rng = np.random.default_rng(23)
    for _ in range(25):
        tokens = [BOS] + list(rng.integers(0, 256, int(rng.integers(1, 30))))
        pooled = model.mean_hidden(tokens)
        assert pooled.shape == (16,)
        assert np.isfinite(np.linalg.norm(pooled))


def test_encode_prompt_deterministic():
    params = tiny_model()
    a = encode_prompt(params, "the same text")
    b = encode_prompt(params, "the same text")
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
        stopped = model.clone()
        stopped.params["head.out"][:, EOS] = 2.0 * stopped.params["head.out"][:, free[k]]
        out = stopped.greedy_decode(prompt, 48)
        assert out == bf_greedy_decode(stopped, prompt, 48)
        assert out == free[:k]


def test_cached_step_logits_match_full_forward(monkeypatch):
    model = _decode_model(2)
    prompt = _random_prompt(np.random.default_rng(3), 11)
    steps = []
    step = TinyTransformer._decode_step

    def recording_step(self, token, pos, keys, values):
        logits = step(self, token, pos, keys, values)
        steps.append((pos, logits))
        return logits

    monkeypatch.setattr(TinyTransformer, "_decode_step", recording_step)
    out = model.greedy_decode(prompt, 40)
    assert len(steps) == len(out) - 1 == 39
    full = prompt + out
    for pos, logits in steps:
        expected = model.forward_trace(full[: pos + 1]).logits[-1]
        assert np.abs(logits - expected).max() <= 1e-12


def test_greedy_decode_runs_one_forward_pass(monkeypatch):
    model = _decode_model(0, max_seq=96)
    prompt = _random_prompt(np.random.default_rng(4), 30)
    calls = []
    forward_trace = TinyTransformer.forward_trace

    def counting_forward_trace(self, tokens):
        calls.append(len(tokens))
        return forward_trace(self, tokens)

    monkeypatch.setattr(TinyTransformer, "forward_trace", counting_forward_trace)
    for n in (1, 2, 48, 500):
        calls.clear()
        model.greedy_decode(prompt, n)
        assert calls == [len(prompt)]
