"""Golden corpus: pinned sha256 digests of CLI output on small documents.

``golden.json`` holds one small document per input format, a non-canonical
twin of the maxcover and approval documents, the flags each solver runs with, and the digest of every ``solve`` report (solver x format),
of one ``compare --with-opt`` CSV without its ``wall_time_s`` column, and of
the ``solve --help`` and ``compare --help`` texts at 80 columns. It also pins
the exit code, standard output and standard error of ``verify`` on each
format's document for five reports: one it accepts, and one that names a set
out of range, lists a set twice, exceeds the budget, or miscounts. A refactor
that keeps behaviour keeps every digest; a changed digest means a changed
report, message or help text. Each twin spells its document with comments,
blank lines, tabs, CRLF line ends, unsorted and duplicate ids, leading zeros,
``+`` signs and a non-ASCII digit, and must give its document's report and
its document's ``verify`` outputs.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from maxcover import cli
from maxcover.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())
FORMATS = tuple(GOLDEN["documents"])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def document(tmp_path, fmt: str) -> str:
    path = tmp_path / f"golden.{fmt}"
    path.write_text(GOLDEN["documents"][fmt])
    return str(path)


def drop_wall_time(csv_text: str) -> str:
    rows = [row.split(",") for row in csv_text.splitlines()]
    drop = rows[0].index("wall_time_s")
    return "".join(",".join(c for i, c in enumerate(row) if i != drop) + "\n" for row in rows)


def help_text(capsys, monkeypatch, command: str) -> str:
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("alg", tuple(GOLDEN["flags"]))
def test_solve_report_digest(tmp_path, capsys, alg, fmt):
    argv = ["solve", "--alg", alg, *GOLDEN["flags"][alg], "--in", document(tmp_path, fmt)]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out) == GOLDEN["solve"][f"{fmt}/{alg}"]


@pytest.mark.parametrize("fmt", tuple(GOLDEN["twins"]))
@pytest.mark.parametrize("alg", tuple(GOLDEN["flags"]))
def test_twin_report_digest(monkeypatch, capsys, alg, fmt):
    # The twin text reaches the parser as it is: a file read would turn CRLF
    # into LF and reject the non-ASCII digit.
    monkeypatch.setattr(cli, "_read", lambda path: GOLDEN["twins"][fmt])
    assert main(["solve", "--alg", alg, *GOLDEN["flags"][alg], "--in", "twin"]) == 0
    assert sha256(capsys.readouterr().out) == GOLDEN["solve"][f"{fmt}/{alg}"]


VERIFY_CASES = [
    (source, fmt, case) for source in ("documents", "twins") for fmt in GOLDEN[source] for case in GOLDEN["verify"][fmt]
]


@pytest.mark.parametrize("source, fmt, case", VERIFY_CASES)
def test_verify_outputs(monkeypatch, capsys, source, fmt, case):
    # Both texts reach the parser as they are, as in the twin report test.
    pin = GOLDEN["verify"][fmt][case]
    files = {"document": GOLDEN[source][fmt], "report": json.dumps(pin["report"])}
    monkeypatch.setattr(cli, "_read", files.__getitem__)
    assert main(["verify", "--in", "document", "--sol", "report"]) == pin["exit"]
    assert capsys.readouterr() == (pin["stdout"], pin["stderr"])


def test_compare_csv_digest(tmp_path, capsys):
    argv = ["compare", *GOLDEN["compare"]["argv"], "--in", document(tmp_path, "maxcover"), "--with-opt"]
    assert main(argv) == 0
    assert sha256(drop_wall_time(capsys.readouterr().out)) == GOLDEN["compare"]["digest"]


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_help_text_digest(capsys, monkeypatch, command):
    assert sha256(help_text(capsys, monkeypatch, command)) == GOLDEN["help"][command]


def test_corpus_covers_every_solver(capsys, monkeypatch):
    choices = re.search(r"--alg \{([^}]*)\}", help_text(capsys, monkeypatch, "solve")).group(1)
    assert choices.split(",") == list(GOLDEN["flags"])
