"""A `palette` process killed while the temp file of its output exists leaves the target as it was.

`common.atomic_write_bytes` writes the whole output to ``NAME.<8 hex>.tmp`` beside
the target, then renames it into place. The child here is `palette.cli` with
`os.replace` swapped for a SIGKILL of itself, so it dies after the temp file is
written and before the rename. A write that never renames meets the same kill
as the child exits. Nothing removes the temp file a killed run leaves; a later
run writes the target through a temp file of its own.
"""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import palette
from palette.align_trainer import save_records_jsonl
from palette.cli import main
from palette.tensor_store import save_checkpoint

from helpers import FIXTURE_RECORDS, tiny_model

KILLED_IN_REPLACE = (
    "import atexit, os, signal, sys\n"
    "from palette.cli import main\n"
    "os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)\n"
    "atexit.register(os.kill, os.getpid(), signal.SIGKILL)\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def command(name: str, tmp_path: Path, target: Path) -> list[str]:
    """The argv of ``palette NAME`` writing ``target`` with -o, its inputs made in ``tmp_path``."""
    model = tmp_path / "model.st"
    save_checkpoint(tiny_model(), model)
    if name == "align":
        save_records_jsonl(FIXTURE_RECORDS[:1], tmp_path / "records.jsonl")
        return ["align", "--model", str(model), "--data", str(tmp_path / "records.jsonl"), "--epochs", "1",
                "-o", str(target)]
    if name == "merge":
        return ["merge", "--method", "task", "--base", str(model), "--expert", f"Africa={model}", "-o", str(target)]
    (tmp_path / "items.jsonl").write_text(json.dumps({"question": "pick one", "options": ["a", "b"],
                                                      "gold": [0.7, 0.3], "country": "NZL"}) + "\n")
    (tmp_path / "transcript.json").write_text(json.dumps({"meta": {"default": "[0.6, 0.4]"}}))
    return ["eval", "--country", "NZL", "--items", str(tmp_path / "items.jsonl"), "--meta-backend", "mock",
            "--transcript", str(tmp_path / "transcript.json"), "-o", str(target)]


@pytest.mark.parametrize("old", [None, b"the output of an earlier run\n"], ids=["new", "existing"])
@pytest.mark.parametrize("name", ["align", "merge", "eval"])
def test_a_run_killed_before_its_rename_leaves_the_target_as_it_was(tmp_path, name, old):
    out = tmp_path / "out"
    out.mkdir()
    target = out / "result"
    argv = command(name, tmp_path, target)
    if old is not None:
        target.write_bytes(old)
    src = str(Path(palette.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", KILLED_IN_REPLACE, *argv], env=env, stdout=subprocess.DEVNULL,
                           timeout=60)
    assert child.returncode == -signal.SIGKILL
    assert (target.read_bytes() if target.exists() else None) == old
    (leftover,) = set(out.iterdir()) - {target}
    assert re.fullmatch(r"result\.[0-9a-f]{8}\.tmp", leftover.name)
    written = leftover.read_bytes()

    # The temp file held the whole output: a run that is not killed writes the
    # same bytes to the target, and leaves the old temp file as it is.
    assert main(argv) == 0
    assert target.read_bytes() == written
    assert set(out.iterdir()) == {target, leftover}
    assert leftover.read_bytes() == written
