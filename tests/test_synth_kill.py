"""A `palette synth run` process killed at a chat request resumes to the bytes of an uninterrupted run.

The teacher is a loopback server that SIGKILLs the child on its k-th request,
before it replies. The job is then resumed in-process against a teacher that
does not kill. Its replies depend only on the prompt, so every run of the job
gets the same reply to the same step.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import palette
from palette.cli import main
from palette.common import iter_jsonl
from palette.templates import load_template

from helpers import ReplyServer, chat_body

TEMPLATES = ("synth_response", "synth_feedback", "synth_aggregate", "synth_judge")
EXPLANATION = "name a local custom"


def template_of(prompt: str) -> str:
    """The synth template a prompt was rendered from: the one whose text before its first field starts it."""
    return next(name for name in TEMPLATES if prompt.startswith(load_template(name).split("{", 1)[0]))


class Teacher(ReplyServer):
    """Each cell's first judge asks for one revision and its second approves; every other
    step answers a digest of its prompt, marked as a revision where it is one."""

    def __init__(self, kill_at=None):
        super().__init__([], kill_at=kill_at)

    @property
    def prompts(self):
        return [seen["body"]["messages"][0]["content"] for seen in self.requests_seen]

    def respond(self):
        prompt = self.prompts[-1]
        if template_of(prompt) == "synth_judge":
            reply = "[Approved]" if "Response: revised " in prompt else f"[Revise] {EXPLANATION}"
        else:
            revised = f"Review Feedback: {EXPLANATION}\n" in prompt
            reply = f"{'revised' if revised else 'reply'} {hashlib.sha256(prompt.encode()).hexdigest()[:12]}"
        return 200, chat_body(reply)


def synth_run(server, queries, out):
    return ["synth", "run", "--queries", str(queries), "--backend", "remote", "--url", server.base_url,
            "--out", str(out)]


def rows(path):
    return {tuple(sorted(row.items())) for _, row in iter_jsonl(path)}


# Each cell asks response, feedback, aggregate, judge1, revise1 and judge2, so the
# second cell's steps are requests 7 to 12; its judge2 is its last step.
@pytest.mark.parametrize("template, k", [
    ("synth_response", 7), ("synth_feedback", 8), ("synth_aggregate", 9), ("synth_aggregate", 11), ("synth_judge", 12),
], ids=["response", "feedback", "aggregate", "revise", "judge"])
def test_killed_synth_run_resumes_to_the_bytes_of_an_uninterrupted_run(tmp_path, monkeypatch, template, k):
    for name in [name for name in os.environ if name.lower().endswith("_proxy")]:
        monkeypatch.delenv(name)
    queries, whole, killed = tmp_path / "queries.jsonl", tmp_path / "whole", tmp_path / "killed"
    queries.write_text(json.dumps({"id": "q0", "query": "how are guests welcomed?"}) + "\n")
    with Teacher() as server:
        assert main(synth_run(server, queries, whole)) == 0
    reference = server.prompts
    assert len(reference) == 5 * 6 and template_of(reference[k - 1]) == template

    src = str(Path(palette.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with Teacher(kill_at=k) as server:
        server.child = subprocess.Popen([sys.executable, "-m", "palette.cli", *synth_run(server, queries, killed)],
                                        env=env, stdout=subprocess.DEVNULL)
        assert server.child.wait(timeout=60) == -signal.SIGKILL
    assert server.prompts == reference[:k]

    with Teacher() as server:
        assert main(synth_run(server, queries, killed)) == 0
    assert server.prompts == reference[k - 1:]  # the killed request and those after it, each once
    names = sorted(path.name for path in whole.iterdir())
    assert sorted(path.name for path in killed.iterdir()) == names
    for name in names:
        if name != "steps.jsonl":
            assert (killed / name).read_bytes() == (whole / name).read_bytes(), name
    assert rows(killed / "steps.jsonl") == rows(whole / "steps.jsonl")
