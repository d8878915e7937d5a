import json

import pytest

from palette import cli
from palette.agent_pipeline import load_opinion_items
from palette.align_trainer import load_records_jsonl
from palette.common import append_jsonl, iter_jsonl, write_jsonl
from palette.data_synth import StepStore, import_prism, load_synth_records
from palette.errors import BadInput


def test_jsonl_write_append_iter_round_trip(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"b": 1, "a": [2.5, "x"]}, {"c": None}])
    append_jsonl(path, {"z": True, "y": "é"})
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
    args = cli.build_parser().parse_args(
        ["synth", "run", "--queries", str(path), "--backend", "mock", "--out", str(path.parent / "out")]
    )
    cli._cmd_synth(args)


READERS = {
    "load_opinion_items": lambda path: load_opinion_items(path, "NZL"),
    "load_records_jsonl": load_records_jsonl,
    "StepStore": StepStore,
    "load_synth_records": load_synth_records,
    "import_prism": import_prism,
    "synth_run_queries": _synth_run_queries,
}


@pytest.mark.parametrize("bad", ['{"query": "cut', "[1, 2]"], ids=["malformed", "not_an_object"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_name_file_and_line_of_a_bad_line(tmp_path, reader, bad):
    path = tmp_path / "data.jsonl"
    path.write_text("\n" + bad + "\n", encoding="utf-8")  # the blank line counts
    with pytest.raises(BadInput) as exc:
        READERS[reader](path)
    assert exc.value.code == "bad_input"
    assert exc.value.context == {"path": str(path), "line": 2}
    assert str(exc.value).startswith(f"{path}:2: ")
