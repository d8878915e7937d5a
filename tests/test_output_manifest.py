"""Byte manifest of the CLI outputs that run no matrix product.

`walkthrough` runs `synth import-prism`, `synth run --backend mock` (scripted,
and echoing so that the stores hold the prompts), `synth pairs`, a mock `eval`
(plain and `--no-draft`), `merge --method ties|task|moerges` and
`metrics kl|salign|pearson` on fixed inputs, with relative paths inside one
directory. The merges read a base and five experts written from fixed
float32 values with repeated magnitudes, so the TIES trim's tie rule shows
in the bytes. The sha256 of every output file and of every command's stdout
must equal `output_manifest.json`.
None of these outputs goes through BLAS, so the manifest holds on any host.

After a deliberate change to one of these outputs, rewrite the manifest with
`PYTHONPATH=src python tests/test_output_manifest.py`.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from palette.cli import main
from palette.common import CONTINENTS
from palette.tensor_store import Checkpoint, TensorSpec, save_checkpoint

MANIFEST = Path(__file__).with_name("output_manifest.json")

INPUTS = {
    "prism.csv": (
        "id,question,extra\n"
        "u1,What happens when we die?,x\n"
        "u2,\"Is it fair to tax inherited wealth, and by how much?\",\n"
        ",How should elders be cared for?,y\n"
        "u4,   ,blank\n"
    ),
    "synth_mock.json": json.dumps({
        "script": ["a first answer", "add a local example", "a merged answer", "[Revise] name the region",
                   "a revised answer", "[Approved]"],
        "default": "[Approved]",
    }),
    # Each reply is its prompt, so steps.jsonl and the records hold the prompts.
    # The judge template names "[Approved]", so every cell is approved in round 1.
    "synth_echo.json": json.dumps({"echo": True}),
    "items.jsonl": "".join(json.dumps(row) + "\n" for row in [
        {"question": "Freedom or equality?", "options": ["Freedom", "Equality"],
         "selections": {"NZL": [0.671, 0.242]}, "country": "NZL"},
        {"question": "Is religion important?", "options": ["Yes", "No", "Unsure"],
         "gold": [0.3, 0.6, 0.1], "country": "NZL", "qid": "rel"},
        {"question": "Trust your neighbours?", "options": ["Yes", "No"], "gold": [0.8, 0.2], "country": "NZL"},
    ]),
    "eval_mock.json": json.dumps({
        "agents": {c: {"default": f"In {c} most would answer the first option."} for c in CONTINENTS},
        # With --no-draft each text reply is a failed parse, and the reply after it is the answer.
        "meta": {"script": ["NZL leans to liberty.", "[0.6, 0.4]", "NZL is secular.", "[0.2, 0.5]",
                            "[0.2, 0.5, 0.3]", "NZL trusts.", "[0.9, 0.1]"]},
    }),
}


# (name, shape) of each tensor of the merge inputs; moerges fuses the `*.ffn.*` one.
TENSORS = [("blocks.0.ffn.w", (3, 4)), ("blocks.0.attn.w", (2, 5)), ("embed", (7,))]


def _checkpoint(k: int) -> Checkpoint:
    """Merge input k (0 is the base): tenths in -0.5..0.5, -0.0 among them, with repeated magnitudes."""
    specs = []
    for j, (name, shape) in enumerate(TENSORS):
        sign = -1 if (j + k) % 2 else 1
        values = [sign * (((i * (3 + k + j) + 2 * k + j) % 11 - 5) / 10) for i in range(math.prod(shape))]
        specs.append(TensorSpec(name, shape, np.array(values, dtype=np.float32)))
    return Checkpoint(specs)


CHECKPOINTS = ["base.st", "e1.st", "e2.st", "e3.st", "e4.st", "e5.st"]
EXPERTS = [arg for k in range(1, 6) for arg in ("--expert", f"x{k}=e{k}.st")]
MERGE = ["merge", "--base", "base.st", *EXPERTS]

EVAL = ["eval", "--country", "NZL", "--items", "items.jsonl", "--meta-backend", "mock", "--transcript", "eval_mock.json"]
COMMANDS = [  # (the name of its stdout entry, argv)
    ("import-prism", ["synth", "import-prism", "--input", "prism.csv", "-o", "queries.jsonl"]),
    ("synth-run", ["synth", "run", "--queries", "queries.jsonl", "--backend", "mock",
                   "--transcript", "synth_mock.json", "--out", "synth"]),
    ("synth-run-echo", ["synth", "run", "--queries", "queries.jsonl", "--backend", "mock",
                        "--transcript", "synth_echo.json", "--out", "synth_echo"]),
    ("synth-pairs", ["synth", "pairs", "--records", "synth", "-o", "pairs.jsonl"]),
    ("eval", [*EVAL, "-o", "report.json"]),
    ("eval-no-draft", [*EVAL, "--no-draft", "-o", "report_no_draft.json"]),
    ("merge-ties", [*MERGE, "--method", "ties", "--density", "0.3", "-o", "ties.st"]),
    ("merge-ties-dense", [*MERGE, "--method", "ties", "--density", "1.0", "--scale", "0.7", "-o", "ties_dense.st"]),
    ("merge-task", [*MERGE, "--method", "task", "--coeff", "0.5", "--coeff", "-0.3", "--coeff", "0.25",
                    "--coeff", "1", "--coeff", "0.1", "-o", "task.st"]),
    ("merge-moerges", [*MERGE, "--method", "moerges", "--gate", "0.1,0.2,0.3,0.15,0.25", "-o", "moerges.st"]),
    ("kl", ["metrics", "kl", "--p", "[0.2, 0.3, 0.5]", "--q", "[0.25, 0.25, 0.5]"]),
    ("salign", ["metrics", "salign", "--gen", "[0.7, 0.2, 0.1]", "--gold", "[0.5, 0.3, 0.2]"]),
    ("pearson", ["metrics", "pearson", "--x", "[1, 2, 3, 5]", "--y", "[2, 4, 7, 1]"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def walkthrough(root: Path) -> dict[str, str]:
    """Run every command in ``root``: the sha256 of each stdout and of each output file."""
    for name, text in INPUTS.items():
        (root / name).write_text(text)
    for k, name in enumerate(CHECKPOINTS):
        save_checkpoint(_checkpoint(k), root / name)
    digests = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, argv in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0, name
            digests[f"stdout:{name}"] = _sha256(out.getvalue().encode())
    finally:
        os.chdir(cwd)
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in INPUTS and path.name not in CHECKPOINTS:
            digests[path.relative_to(root).as_posix()] = _sha256(path.read_bytes())
    return digests


def test_cli_outputs_match_the_manifest(tmp_path):
    assert walkthrough(tmp_path) == json.loads(MANIFEST.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        MANIFEST.write_text(json.dumps(walkthrough(Path(tmp)), indent=2, sort_keys=True) + "\n")
