import json

import pytest

from palette import cli
from palette.agent_pipeline import load_opinion_items
from palette.align_trainer import load_records_jsonl
from palette.common import append_jsonl, iter_jsonl, write_jsonl
from palette.data_synth import StepStore, import_prism, load_synth_records

from helpers import appending, raises_code


def test_jsonl_write_append_iter_round_trip(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"b": 1, "a": [2.5, "x"]}, {"c": None}])
    with appending() as fds:
        append_jsonl(fds, path, {"z": True, "y": "é"})
    assert path.read_text(encoding="utf-8") == (
        '{"a": [2.5, "x"], "b": 1}\n{"c": null}\n{"y": "\\u00e9", "z": true}\n'
    )
    path.write_text(path.read_text(encoding="utf-8").replace("\n", "\n\n", 1), encoding="utf-8")
    assert list(iter_jsonl(path)) == [
        (0, {"a": [2.5, "x"], "b": 1}),
        (2, {"c": None}),
        (3, {"y": "é", "z": True}),
    ]


def _synth_run_queries(path):
    transcript = path.parent / "transcript.json"  # valid, so that the run fails on `path` alone
    transcript.write_text(json.dumps({"default": "[Approved]"}))
    args = cli.build_parser().parse_args(
        ["synth", "run", "--queries", str(path), "--backend", "mock", "--transcript", str(transcript),
         "--out", str(path.parent / "out")]
    )
    cli._cmd_synth(args)


READERS = {
    "load_opinion_items": lambda path: load_opinion_items(path, "NZL"),
    "load_records_jsonl": load_records_jsonl,
    "StepStore": lambda path: StepStore(path, {}),  # reads only, so it opens no descriptor
    "load_synth_records": load_synth_records,
    "import_prism": import_prism,
    "synth_run_queries": _synth_run_queries,
}


@pytest.mark.parametrize(
    "bad",
    [b'{"query": "cut', b"[1, 2]", b'{"question": "caf\xe9"}'],
    ids=["malformed", "not_an_object", "invalid_utf8"],
)
@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_name_file_and_line_of_a_bad_line(tmp_path, reader, bad):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"\n" + bad + b"\n")  # the blank line counts
    with raises_code("bad_input") as exc:
        READERS[reader](path)
    assert exc.value.code == "bad_input"
    assert exc.value.context == {"path": str(path), "line": 2}
    assert str(exc.value).startswith(f"{path}:2: ")


_SYNTH_RECORD = {
    "query_id": "q0", "query": "q", "continent": "Asia", "base_response": "b",
    "feedback": "f", "aggregated": "a", "final": "x", "rounds_used": 1, "approved": True,
}
ROWS_MISSING_A_KEY = {
    "load_opinion_items": ({"question": "q", "gold": [1, 1], "country": "NZL"}, "options"),
    "load_records_jsonl": ({"query": "q", "preferred": "p", "continent": "Asia"}, "rejected"),
    "StepStore": ({"query_id": "q0", "continent": "Asia", "step": "response"}, "output"),
    "load_synth_records": ({k: v for k, v in _SYNTH_RECORD.items() if k != "final"}, "final"),
    "synth_run_queries": ({"query": "q"}, "id"),
}


@pytest.mark.parametrize("reader", sorted(ROWS_MISSING_A_KEY))
def test_readers_name_file_line_and_key_of_a_row_missing_a_key(tmp_path, reader):
    row, key = ROWS_MISSING_A_KEY[reader]
    path = tmp_path / "data.jsonl"
    path.write_text("\n" + json.dumps(row) + "\n", encoding="utf-8")
    with raises_code("bad_input") as exc:
        READERS[reader](path)
    assert exc.value.context == {"path": str(path), "line": 2, "key": key}
    assert str(exc.value) == f"{path}:2: missing key {key!r}"


def test_opinion_item_without_gold_names_file_and_line(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_text('\n{"question": "q", "options": ["a", "b"], "country": "NZL"}\n')
    with raises_code("bad_input") as exc:
        load_opinion_items(path, "NZL")
    assert exc.value.context == {"path": str(path), "line": 2}
    assert str(exc.value) == f"{path}:2: no gold distribution for 'NZL'"


@pytest.mark.parametrize("reader", sorted(set(READERS) - {"StepStore"}))  # no store yet is empty
def test_readers_raise_io_failure_for_a_missing_file(tmp_path, reader):
    path = tmp_path / "missing.jsonl"
    with raises_code("io_failure") as exc:
        READERS[reader](path)
    assert exc.value.code == "io_failure"
    assert exc.value.context == {"path": str(path)}
    assert str(path) in str(exc.value)


def test_iter_jsonl_reads_crlf_and_utf8(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes('{"a": "café"}\r\n\r\n{"b": 1}\r\n'.encode("utf-8"))
    assert list(iter_jsonl(path)) == [(0, {"a": "café"}), (2, {"b": 1})]
