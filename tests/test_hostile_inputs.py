"""Outside input that is too deep or too large, or names no group, stops at
the boundary.

Every case runs ``vlab.cli.main`` in this process: it exits 1 with one
``error:`` or ``parse error:`` line on stderr (or, for ``epi``, exits 2 with
an ``unknown`` report), prints no traceback, and takes under a second.
"""

import json
import time

import pytest

from vlab.catalog import resolve_group_name, resolve_subgroup
from vlab.cli import main
from vlab.config import MAX_NESTING
from vlab.engine import EngineContext, epi_decide, verify_certificate
from vlab.varieties import parse_descriptor

DEEP = "C2" + "wrC2" * 59
TOO_DEEP = "C2" + "wrC2" * (MAX_NESTING + 1)
HUGE_C = "Nc:" + "1" + "0" * 20
LONG_LAW = "laws:{x1 x200000}"
OVERSIZED = [LONG_LAW, "laws:{x1 x20000000}", "prod(laws:{x1 x3000000},A)",
             HUGE_C]


def fixture_file(tmp_path, group, descriptor="A"):
    path = tmp_path / "fixtures.txt"
    path.write_text(f"known-member | {group} | - | {descriptor} | a test\n")
    return str(path)


CASES = {
    "order-deep": lambda tmp: ["order", DEEP],
    "order-too-deep": lambda tmp: ["order", TOO_DEEP],
    "order-recursion-deep": lambda tmp: ["order", "C2" + "wrC2" * 1500],
    "wreath-top-deep": lambda tmp: ["wreath", "--bottom", "C2",
                                    "--top", DEEP],
    "fixtures-deep": lambda tmp: ["--fixtures", fixture_file(tmp, DEEP),
                                  "order", "S3"],
    "epi-var-deep": lambda tmp: ["epi", "--variety", f"var:{DEEP}",
                                 "--group", "S3", "--sub", "(0 1)"],
    "verbal-long-law": lambda tmp: ["verbal", "--group", "S3",
                                    "--descriptor", LONG_LAW],
    "verbal-longer-law": lambda tmp: ["verbal", "--group", "S3",
                                      "--descriptor", "laws:{x1 x20000000}"],
    "epi-long-law": lambda tmp: ["epi", "--variety", LONG_LAW,
                                 "--group", "S3", "--sub", "(0 1)"],
    "epi-long-trivial-law": lambda tmp: [
        "epi", "--variety", "prod(laws:{x1 x3000000},A)", "--group", "S3",
        "--sub", "()"],
    "magnus-word-power": lambda tmp: ["magnus", "--word",
                                      "(x1 x2)^" + "9" * 4300, "-p", "2"],
    "epi-huge-class": lambda tmp: ["epi", "--variety", HUGE_C,
                                   "--group", "S3", "--sub", "(0 1)"],
    **{f"order-{kind}0": (lambda tmp, kind=kind: ["order", f"{kind}0"])
       for kind in "CSAD"},
}


@pytest.mark.parametrize("argv", CASES.values(), ids=CASES.keys())
def test_hostile_input_stops_at_the_boundary(argv, tmp_path, capsys):
    argv = argv(tmp_path)
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code == 2:
        assert argv[0] == "epi"
        assert json.loads(out)["outcome"] == "unknown"
        assert err == ""
    else:
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(("error: ", "parse error: "))
    assert elapsed < 1.0


UNRESOLVED = {
    "epi": lambda tmp: ["epi", "--variety", "var:NoSuchGroup", "--group",
                        "S3", "--sub", "(0 1)"],
    "bounds": lambda tmp: ["bounds", "--variety", "var:NoSuchGroup",
                           "--group", "S3", "--sub", "(0 1)"],
    "epi-prod": lambda tmp: ["epi", "--variety", "prod(A,var:NoSuchGroup)",
                             "--group", "S3", "--sub", "(0 1)"],
    "bounds-prod": lambda tmp: ["bounds", "--variety",
                                "prod(A,var:NoSuchGroup)", "--group", "S3",
                                "--sub", "(0 1)"],
    "escape": lambda tmp: ["escape", "--base", "C2",
                           "--variety", "var:NoSuchGroup"],
    "pipeline-left": lambda tmp: ["pipeline", "--simple", "A5", "--sub", "A4",
                                  "--left", "var:NoSuchGroup",
                                  "--right", "A"],
    "pipeline-right": lambda tmp: ["pipeline", "--simple", "A5", "--sub",
                                   "A4", "--left", "var:A5",
                                   "--right", "var:NoSuchGroup"],
    "fixtures": lambda tmp: ["--fixtures",
                             fixture_file(tmp, "A5", "var:NoSuchGroup"),
                             "order", "S3"],
}


@pytest.mark.parametrize("argv", UNRESOLVED.values(), ids=UNRESOLVED.keys())
def test_a_var_name_that_does_not_resolve_is_a_parse_error(argv, tmp_path,
                                                           capsys):
    """var:NAME must name a group, as --group must; a fixture file's error
    names its line."""
    argv = argv(tmp_path)
    line = "line 1: " if argv[0] == "--fixtures" else ""
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"parse error: {line}unknown group name 'NoSuchGroup'\n")


def test_too_many_wr_in_a_fixture_file_names_its_line(tmp_path, capsys):
    assert main(["--fixtures", fixture_file(tmp_path, TOO_DEEP),
                 "order", "S3"]) == 1
    assert capsys.readouterr().err == (
        f"parse error: line 1: group name nests wr deeper than "
        f"{MAX_NESTING}\n")


def test_a_huge_class_reads_the_stationary_term(capsys):
    """Nc:c past log2 |G| is the same variety on G as any such c."""
    reports = []
    for c in ("20", HUGE_C[3:]):
        assert main(["verbal", "--group", "S4",
                     "--descriptor", f"Nc:{c}"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["order"] == reports[1]["order"] == 12
    assert reports[0]["generators"] == reports[1]["generators"]


@pytest.mark.parametrize("text", OVERSIZED)
def test_verify_certificate_is_total_under_oversized_descriptors(text):
    ctx = EngineContext.bundled()
    G = resolve_group_name("S3")
    H = resolve_subgroup("(0 1)", G)
    verdict = epi_decide(G, H, parse_descriptor("Sl:2"), ctx)
    assert verdict.outcome == "not_epi"
    assert verify_certificate(G, H, parse_descriptor(text), verdict,
                              ctx) is False
