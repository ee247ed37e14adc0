"""The CLI's exit-code contract under mutated documents, reports and
algorithm lists.

A seeded fuzzer edits small maxcover, approval and graph documents: byte
edits, truncations, line shuffles and inserted tokens. Each mutant is solved
by every solver, some with ``--with-opt``. ``verify`` reads mutated JSON
reports of those documents, and ``compare`` runs drawn ``--algs`` lists.
Paths and lists that start with "-" are among the words, since a word after
a flag is its value unless argparse reads it as one of the options.
Every call must return 0, 1 or 2 without an exception, and print exactly one
``error:`` or ``mismatch:`` line to stderr when it fails and none when it
succeeds.
"""

import json
import random

from maxcover.cli import SOLVERS, main

DOCUMENTS = (
    "p maxcover 12 6 3\ns 1 2 3\ns 3 4 5 6\ns 7 8\ns 2 9 10 11\ns 12\ns 1 5 9\n",
    "c a comment\np maxcover 9 5 2\ns 1 2\ns 2 3 4\n\ns 5 6 7\ns 8 9\ns 1 9\n",
    "p approval 5 7 2\nv 1 2\nv 2 3\nv 4\nv 1 5\nv 3 4 5\nv 2\nv 1 3\n",
    "p graph 6 7 2\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 6 1\ne 2 5\n",
)

# Tokens that look like numbers to some readers and not to others, and
# bytes that some readers take as line breaks or ends.
TOKENS = ("nan", "1e3", "+3", "٣", "\0", "\x85", "\x0b", "-1", "0", "99", " ", "\n", "\r", "s", "v", "e", "p", "c")

# Flags each solver needs, drawn per case, valid and invalid alike.
FLAGS = {
    "--beta": ("0.5", "0.75", "1", "2", "1.5", "0", "-inf", "nan"),
    "--epsilon": ("0.1", "0.5", "1", "0"),
    "--x": ("0", "1", "2", "-1", "7"),
    "--alpha": ("0.025", "0.2", "1", "-1"),
}


def mutate(rand: random.Random, text: str) -> str:
    for _ in range(rand.choice((1, 1, 1, 2, 3))):
        how = rand.randrange(4)
        at = rand.randint(0, len(text))
        if how == 0:  # a byte edit: drop, replace or insert one character
            new = rand.choice(("", *"0123456789 \n-psvec\t\r", chr(rand.randrange(256))))
            text = text[:at] + new + text[at + rand.randint(0, 1) :]
        elif how == 1:  # a truncation
            text = text[:at]
        elif how == 2:  # mostly the lines after the header, sometimes all
            lines = text.split("\n")
            keep = int(rand.random() < 0.8)
            rest = lines[keep:]
            rand.shuffle(rest)
            text = "\n".join(lines[:keep] + rest)
        else:  # mostly a word of its own
            token = rand.choice(TOKENS)
            text = text[:at] + (f" {token} " if rand.random() < 0.7 else token) + text[at:]
    return text


def assert_contract(code: int, err: str, context) -> None:
    failures = [line for line in err.split("\n") if line.startswith(("error:", "mismatch:"))]
    assert code in (0, 1, 2), (context, code)
    assert len(failures) == (code != 0), (context, code, failures)


def drawn_flags(rand: random.Random, flags) -> list[str]:
    argv = []
    for flag in flags:
        argv += [flag, rand.choice(FLAGS[flag])]
    if rand.random() < 0.3:
        argv.append("--with-opt")
    return argv


# Document and report paths, relative to the test's working directory.
PATHS = (("doc.txt", "report.json"), ("-doc.txt", "-report.json"), ("--doc", "-"))


def test_every_mutated_document_meets_the_exit_code_contract(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rand = random.Random(27)
    codes = set()
    for case in range(400):
        text = mutate(rand, DOCUMENTS[case % len(DOCUMENTS)])
        doc, out = rand.choice(PATHS)
        (tmp_path / doc).write_bytes(text.encode("utf-8"))
        for alg, (flags, _) in SOLVERS.items():
            argv = ["solve", "--alg", alg, "--in", doc, "--out", out, *drawn_flags(rand, flags)]
            code = main(argv)
            assert_contract(code, capsys.readouterr().err, (text, argv))
            codes.add(code)
    assert codes == {0, 1, 2}


# Values a report's keys may hold in place of their own, and fragments its
# text may gain: other types, numbers no int reads, an integer past the
# decoder's 4 300 digits, nesting past its recursion limit, text that is not
# ASCII and broken syntax.
JSON_VALUES = (True, None, float("nan"), float("-inf"), -0.0, 2.0, "3", [], {}, [[1]], [True], -1, 0, 99)
JSON_TOKENS = ("1e400", "9" * 4400, "[" * 3000, "\\u00e9", "é", "-", ",", ":", "[", "]", "{", "}", '"', "NaN")


def mutate_report(rand: random.Random, report: dict) -> str:
    """A report's JSON text with one of its keys edited, dropped or replaced,
    or a value inserted in the chosen list, then edited as text about a
    third of the time."""
    report = dict(report, chosen=list(report["chosen"]))
    key = rand.choice(("chosen", "covered", "uncovered", "chosen", "chosen"))
    how = rand.randrange(4)
    if how == 0:
        report.pop(key)
    elif how == 1:
        report[key] = rand.choice(JSON_VALUES)
    elif how == 2 and key == "chosen":
        report["chosen"].insert(rand.randint(0, len(report["chosen"])), rand.choice((-1, 0, 1, 2, 7, 2**70, True)))
    elif how == 2:
        report[key] += rand.choice((-1, 1))
    text = json.dumps(report) if rand.random() < 0.9 else json.dumps([report])
    if rand.random() < 0.3:
        at = rand.randint(0, len(text))
        text = text[:at] + rand.choice(("", *JSON_TOKENS, *map(json.dumps, JSON_VALUES))) + text[at + rand.randint(0, 2) :]
    return text


def test_every_mutated_report_meets_the_exit_code_contract(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rand = random.Random(28)
    codes = set()
    for text, (doc, sol) in zip(DOCUMENTS, PATHS * 2):
        (tmp_path / doc).write_text(text)
        for alg in ("exact", "greedy"):
            assert main(["solve", "--alg", alg, "--in", doc, "--out", sol]) == 0
            report = json.loads((tmp_path / sol).read_text())
            capsys.readouterr()
            for _ in range(150):
                mutant = mutate_report(rand, report)
                (tmp_path / sol).write_bytes(mutant.encode("utf-8"))
                code = main(["verify", "--in", doc, "--sol", sol])
                assert_contract(code, capsys.readouterr().err, (text, mutant[:200]))
                codes.add(code)
    assert codes == {0, 1, 2}


# Words an --algs list may hold beside the solver ids; the dash-led ones name
# no option of compare, so the list stays --algs's value.
ALG_WORDS = (*SOLVERS, *SOLVERS, "", " ", "EXACT", "greedy ", "fpt;", "min nc", "٣",
             "-1", "-greedy", "-", "--nope", "-x=1")


def test_every_drawn_algorithm_list_meets_the_exit_code_contract(tmp_path, capsys):
    rand = random.Random(29)
    doc, out = tmp_path / "doc.txt", tmp_path / "table.csv"
    codes = set()
    for case in range(800):
        text = DOCUMENTS[case % len(DOCUMENTS)]
        if rand.random() < 0.3:
            text = mutate(rand, text)
        doc.write_bytes(text.encode("utf-8"))
        algs = rand.choice((",", ", ", " ,")).join(rand.choice(ALG_WORDS) for _ in range(rand.randint(0, 4)))
        words = [f"--algs={algs}"] if rand.random() < 0.5 else ["--algs", algs]
        argv = ["compare", *words, "--in", str(doc), "--out", str(out), *drawn_flags(rand, FLAGS)]
        code = main(argv)
        assert_contract(code, capsys.readouterr().err, (text, argv))
        codes.add(code)
    assert codes == {0, 1, 2}
