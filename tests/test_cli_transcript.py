"""CLI transcript: the stdout, stderr and exit code of ``main(argv)`` stay byte-identical.

``tests/data/cli_transcript.jsonl.gz`` holds one compact JSON line per command
of ``transcript_argvs()``: ``{"argv", "exit", "stdout", "stderr"}``.  The four
golden files of ``tests/test_golden.py`` pin library JSON; this file pins the
bytes the command line prints, error paths and exit codes included.
Regenerate it only on purpose:

    PYTHONPATH=src python tests/test_cli_transcript.py --write
"""

import gzip
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qkbw.cli import main

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli_transcript.jsonl.gz"
FORMATS = ("md", "json", "csv")


def transcript_argvs():
    """Every verb in md, json and csv (an error where csv is not offered), then error cases."""
    per_format = [
        ["casimir", "--n", "2", "--rho", "1,0", "--q-max", "4"],
        ["casimir", "--n", "3", "--rho", "2^1 1^1 @ 3"],
        ["decompose", "--n", "3", "--rho", "2,1,0"],
        ["decompose", "--n", "2", "--rho", "1,1"],
        ["decompose", "--n", "3", "--rho", "2,1,0", "--k", "1"],
        ["table1", "--n", "4", "--a", "2", "--b", "1"],
        ["bw", "--n", "2", "--k", "1", "--rho", "1,0"],
        ["bw", "--n", "2", "--k", "2", "--a", "2", "--b", "1", "--hpn"],
        ["bw", "--n", "3", "--k", "0", "--rho", "2,1,0", "--raw"],
        ["bound", "--n", "2", "--k", "2", "--a", "2", "--b", "0", "--kappa-sign", "+"],
        ["bound", "--n", "3", "--k", "1", "--rho", "2,1,1", "--operator", "connection", "--kappa-sign", "-"],
        ["bound", "--n", "3", "--k", "0", "--rho", "3,2,1", "--kappa-sign", "+", "--hpn"],
        ["bound", "--n", "2", "--k", "2", "--rho", "3,1", "--kappa-sign", "+"],
        ["vanish", "--n", "2", "--k", "1"],
        ["harmonic", "--n", "2"],
        ["hpn", "--n", "2", "--k", "2", "--a", "1", "--b", "0"],
        ["sweep", "--n", "2", "--kappa-sign", "both"],
        ["sweep", "--n", "2..3", "--hpn"],
    ]
    argvs = [argv + ["--format", fmt] for argv in per_format for fmt in FORMATS]
    argvs += [
        ["bw", "--n", "2", "--k", "0", "--rho", "1,1", "--emit-latex"],
        ["selftest", "--quick"],
        # user errors: exit 2
        ["bound", "--n", "1", "--k", "0", "--rho", "1", "--kappa-sign", "+"],
        ["casimir", "--n", "1", "--rho", "1"],
        ["bound", "--n", "2", "--k", "-1", "--rho", "1,0", "--kappa-sign", "+"],
        ["bw", "--n", "2", "--k", "-1", "--rho", "1,0"],
        ["bound", "--n", "2", "--k", "0", "--rho", "0,1", "--kappa-sign", "-"],
        ["casimir", "--n", "2", "--rho", "0,1"],
        ["table1", "--n", "3", "--a", "1", "--b", "1"],
        ["table1", "--n", "3", "--a", "2", "--b", "0"],
        ["table1", "--n", "3", "--a", "3", "--b", "1"],
        ["hpn", "--n", "2", "--k", "1", "--a", "1", "--b", "0"],
        ["sweep", "--n", "1"],
        ["vanish", "--n", "0", "--k", "0"],
        ["vanish", "--n", "1", "--k", "0"],
        ["vanish", "--n", "2", "--k", "-1"],
        ["bound", "--n", "2", "--k", "0", "--rho", "2.5,1", "--kappa-sign", "+"],
    ]
    return argvs


def transcript_line(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    record = {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return json.dumps(record, separators=(",", ":"))


def test_cli_transcript_byte_identical():
    argvs = transcript_argvs()
    with gzip.open(TRANSCRIPT, "rt", encoding="ascii") as fh:
        golden = fh.read().splitlines()
    assert len(golden) == len(argvs)
    for argv, line in zip(argvs, golden):
        assert transcript_line(argv) == line, argv


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_transcript.py --write")
    text = "".join(transcript_line(argv) + "\n" for argv in transcript_argvs())
    # mtime=0 keeps the gzip bytes reproducible.
    with open(TRANSCRIPT, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("ascii"))
