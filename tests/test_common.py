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


def _synth_run_ids(path):
    _synth_run_queries(path)
    return [row["query_id"] for _, row in iter_jsonl(path.parent / "out" / "records_Africa.jsonl")]


# reader -> (the keys it gives the rows of a file, a row with no "id", the key of such a row on line 1)
ID_READERS = {
    "eval": (lambda path: [item.qid for item in load_opinion_items(path, "NZL")],
             {"question": "q", "options": ["a", "b"], "gold": [1, 1], "country": "NZL"}, "q0000"),
    "synth run": (_synth_run_ids, {"query": "q"}, None),
    "import-prism": (lambda path: [row["id"] for row in import_prism(path)], {"question": "q"}, "q00000"),
}
ABSENT = object()
# The "id" of each row (ABSENT: no such key) -> the keys, None for a missing id,
# or the line and message of the refusal.
ID_CASES = {
    "absent": ([ABSENT], None),
    "null": ([None], None),
    "empty": ([""], None),
    "zero": ([0], ["0"]),
    "integer": ([7], ["7"]),
    "string": (["7"], ["7"]),
    "bool": ([True], (1, "an id must be a string or an integer, got bool")),
    "float": ([1.5], (1, "an id must be a string or an integer, got float")),
    "list": ([[1]], (1, "an id must be a string or an integer, got list")),
    "object": ([{}], (1, "an id must be a string or an integer, got dict")),
    "repeat": ([1, "1"], (2, "query id '1' repeats line 1")),
}


@pytest.mark.parametrize("case", list(ID_CASES))
@pytest.mark.parametrize("reader", list(ID_READERS))
def test_readers_key_each_row_by_one_id_rule(tmp_path, reader, case):
    read, row, default = ID_READERS[reader]
    ids, expected = ID_CASES[case]
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(row if i is ABSENT else {**row, "id": i}) + "\n" for i in ids))
    context = {}
    if expected is None:  # a missing id: the reader's default, or a refusal where it has none
        expected, context = ([default], {}) if default else ((1, "missing key 'id'"), {"key": "id"})
    if isinstance(expected, list):
        assert read(path) == expected
        return
    line, message = expected
    with raises_code("bad_input") as exc:
        read(path)
    assert str(exc.value) == f"{path}:{line}: {message}"
    assert exc.value.context == {"path": str(path), "line": line, **context}


def test_eval_counts_repeated_ids_only_among_the_rows_of_its_country(tmp_path):
    path = tmp_path / "items.jsonl"
    row = {"question": "q", "options": ["a", "b"], "gold": [1, 1]}
    path.write_text(json.dumps({**row, "id": 7, "country": "NZL"}) + "\n"
                    + json.dumps({**row, "id": "7", "country": "JPN"}) + "\n")
    for country in ("NZL", "JPN"):
        assert [(item.qid, item.country) for item in load_opinion_items(path, country)] == [("7", country)]


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
