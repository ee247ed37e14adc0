"""The CLI's exit-code contract under mutated documents.

A seeded fuzzer edits small maxcover, approval and graph documents: byte
edits, truncations, line shuffles and inserted tokens. Each mutant is solved
by every solver, some with ``--with-opt``. Every call must return 0, 1 or 2
without an exception, and print exactly one ``error:`` line to stderr when it
fails and none when it succeeds.
"""

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


def test_every_mutated_document_meets_the_exit_code_contract(tmp_path, capsys):
    rand = random.Random(27)
    doc, out = tmp_path / "doc.txt", tmp_path / "report.json"
    codes = set()
    for case in range(400):
        text = mutate(rand, DOCUMENTS[case % len(DOCUMENTS)])
        doc.write_bytes(text.encode("utf-8"))
        for alg, (flags, _) in SOLVERS.items():
            argv = ["solve", "--alg", alg, "--in", str(doc), "--out", str(out)]
            for flag in flags:
                argv += [flag, rand.choice(FLAGS[flag])]
            if rand.random() < 0.3:
                argv.append("--with-opt")
            code = main(argv)
            errors = [line for line in capsys.readouterr().err.split("\n") if line.startswith("error:")]
            assert code in (0, 1, 2), (text, argv, code)
            assert len(errors) == (code != 0), (text, argv, code, errors)
            codes.add(code)
    assert codes == {0, 1, 2}

