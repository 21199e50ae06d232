"""The CLI's bytes, pinned: every subcommand in both formats, with exit
codes 0, 1 and 2, runs in-process through ``vlab.cli.main``, and one sha256
covers every invocation's stdout, stderr and exit code.  ``scenario --all``
has its own pin in ``test_cli.py``.  A change to any report, message or exit
code moves the digest; update it only for a change that means to do so.
"""

import hashlib

from vlab.cli import main

MALFORMED_CATALOG = "ok | 2 | 1 0\nbad | 2 | 0 0\n"
SHORT_CATALOG_RECORD = "\n# comment\nS3 | 3\n"
SHORT_FIXTURE_RECORD = "# comment\n\nknown-epi | A5 | - | var:A5\n"

CASES = [
    ("order", "A5"),
    ("order", "C2wrC4"),
    ("order", "C10001"),
    ("verbal", "--group", "S4", "--descriptor", "Sl:2"),
    ("verbal", "--group", "S3", "--descriptor", "Nc:x"),
    ("--max-wreath-top", "6", "wreath", "--bottom", "C2", "--top", "C3"),
    ("kk-embed", "--group", "S3", "--normal", "(0 1 2)"),
    ("epi", "--variety", "prod(var:A5,A)", "--group", "A5", "--sub", "A4",
     "--verify"),
    ("epi", "--variety", "A", "--group", "C4", "--sub", "(0 2)(1 3)",
     "--verify"),
    ("--max-enumerate", "10", "epi", "--variety", "A", "--group", "S4",
     "--sub", "(0 1 2)"),
    ("epi", "--variety", "A", "--group", "A5", "--sub", "(0 1)"),
    ("bounds", "--variety", "prod(var:A5,A)", "--group", "A5", "--sub",
     "A4"),
    ("bounds", "--variety", "prod(A,A)", "--group", "S4", "--sub",
     "(0 1 2 3)"),
    ("magnus", "--word", "[x1,x2]", "-p", "2"),
    ("magnus", "--word", "x1^6x2^-3", "-p", "3"),
    ("magnus", "--word", "x1^", "-p", "2"),
    ("magnus", "--word", "x1", "-p", "4"),
    ("escape", "--base", "C2", "--variety", "A"),
    ("escape", "--base", "C2", "--variety", "Sl:5"),
    ("pipeline", "--simple", "A5", "--sub", "A4", "--left", "var:A5",
     "--right", "A"),
    ("scenario", "--list"),
    ("scenario", "escape-abelian"),
    ("scenario", "nope"),
]

FILE_CASES = [
    ("--catalog", MALFORMED_CATALOG, "order", "C2"),
    ("--catalog", SHORT_CATALOG_RECORD, "order", "C2"),
    ("--fixtures", "# none\n", "epi", "--variety", "var:A5", "--group", "A5",
     "--sub", "A4"),
    ("--fixtures", SHORT_FIXTURE_RECORD, "order", "A5"),
]

DIGEST = "1b4f346417fdeb6bc4cda311fa248ff735cd30d33c4543a5153208f0bbe927b8"


def _invocations(tmp_path):
    for argv in CASES:
        yield argv
    for i, (flag, text, *rest) in enumerate(FILE_CASES):
        path = tmp_path / f"records{i}.txt"
        path.write_text(text, encoding="utf-8")
        yield (flag, str(path), *rest)


def test_cli_bytes_match_the_pinned_digest(capsys, tmp_path):
    digest = hashlib.sha256()
    codes = []
    for fmt in ("json", "text"):
        for argv in _invocations(tmp_path):
            code = main(["--format", fmt, *argv])
            captured = capsys.readouterr()
            codes.append(code)
            for part in (str(code), captured.out, captured.err):
                digest.update(part.encode("utf-8") + b"\0")
    assert {0, 1, 2} <= set(codes)
    assert digest.hexdigest() == DIGEST
