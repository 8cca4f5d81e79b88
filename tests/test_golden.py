"""Golden CLI transcripts: stdout and exit code of every query subcommand.

Each graph in tests/golden/<name>.g has a transcript tests/golden/<name>.out
holding, for every command below, a header line with the argv and the exit
code followed by the exact stdout. The test replays the commands and asserts
byte equality, so any change to the numbers the CLI prints shows up here.

Regenerate the transcripts (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from biharmonic.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
METHODS = ("spectral", "pinv", "det", "minnorm", "all")
GRAPHS = ("wheel7", "complete6", "hypercube4", "path8", "k4minus", "sparse12", "sparse16")


def commands(name: str) -> list[list[str]]:
    path = str(GOLDEN / f"{name}.g")
    with open(path, encoding="utf-8") as handle:
        n = int(handle.readline().split()[0])
    u, v = "0", str(n - 1)
    argvs = [["dist", path, u, v, "--method", m] for m in METHODS]
    argvs.append(["dist", path, v, v, "--method", "all"])
    argvs += [["matrix", path], ["index", path], ["bounds", path, u, v], ["verify", path]]
    return argvs


def transcript(name: str) -> str:
    chunks = []
    for argv in commands(name):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        shown = " ".join(Path(a).name if a.endswith(".g") else a for a in argv)
        chunks.append(f"$ biharmonic {shown} -> exit {code}\n{out.getvalue()}")
    return "".join(chunks)


@pytest.mark.parametrize("name", GRAPHS)
def test_cli_transcript_unchanged(name):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert transcript(name) == expected


if __name__ == "__main__":
    for name in GRAPHS:
        (GOLDEN / f"{name}.out").write_text(transcript(name), encoding="utf-8")
        print(f"wrote {GOLDEN / name}.out", file=sys.stderr)
