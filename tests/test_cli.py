import hashlib
import json
from pathlib import Path

import pytest

from vlab.cli import build_parser, main
from vlab.catalog import bundled_catalog, serialize_catalog
from vlab.config import MAX_DEGREE, MAX_NESTING


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


class TestBasicCommands:
    def test_order(self, capsys):
        code, report = run_json(capsys, "order", "A5")
        assert code == 0
        assert report["order"] == 60
        assert report["schema"] == 1

    def test_order_of_wreath_name(self, capsys):
        code, report = run_json(capsys, "order", "C2wrC4")
        assert code == 0 and report["order"] == 64

    def test_verbal(self, capsys):
        code, report = run_json(capsys, "verbal", "--group", "S4",
                                "--descriptor", "Sl:2")
        assert code == 0
        assert report["order"] == 4

    def test_wreath(self, capsys):
        code, report = run_json(capsys, "wreath", "--bottom", "A5",
                                "--top", "C2")
        assert code == 0
        assert report["order"] == 7200
        assert report["degree"] == 10
        assert report["base_order"] == 3600

    def test_kk_embed(self, capsys):
        code, report = run_json(capsys, "kk-embed", "--group", "S3",
                                "--normal", "(0 1 2)")
        assert code == 0
        assert report["wreath_order"] == 18
        assert report["image_order"] == 6
        assert report["injective"] is True

    def test_magnus(self, capsys):
        code, report = run_json(capsys, "magnus", "--word", "[x1,x2]",
                                "-p", "2")
        assert code == 0
        assert report["truncation_degree"] == 5
        assert report["witness_monomial"] == "y1y2y1y2"
        assert report["predicted_coefficient"] == 1
        assert report["consistent"] is True

    def test_magnus_on_a_22_syllable_bracket(self, capsys):
        code, report = run_json(capsys, "magnus", "--word", "[x1,x2,x3,x4]",
                                "-p", "2")
        assert code == 0
        assert report["truncation_degree"] == 23
        assert report["image_is_one"] is False
        assert report["consistent"] is True

    def test_escape(self, capsys):
        code, report = run_json(capsys, "escape", "--base", "C2",
                                "--variety", "A")
        assert code == 0
        assert report["top"]["name"] == "C2"
        assert report["witness_order"] == 8

    def test_escape_exhausted_exits_2(self, capsys):
        code, report = run_json(capsys, "escape", "--base", "C2",
                                "--variety", "Sl:5")
        assert code == 2
        assert report["outcome"] == "unknown"
        assert report["base"] == "C2" and report["variety"] == "Sl:5"
        assert report["skipped"] == [
            "C2wrC2wrC2: max_wreath_top: 128 exceeds the limit 12"]
        assert report["skipped"][0] in report["reason"]

    @pytest.mark.parametrize("argv", [
        ("escape", "--base", "C2", "--variety", "prod(A,var:S3)"),
        ("--max-enumerate", "3", "escape", "--base", "C2", "--variety",
         "laws:{x1^4}")])
    def test_escape_skips_rungs_whose_membership_stops(self, capsys, argv):
        code, report = run_json(capsys, *argv)
        assert code == 2 and report["outcome"] == "unknown"
        assert "C4: membership: " in report["reason"]
        assert any(note.startswith("C4: membership: ")
                   for note in report["skipped"])

    def test_pipeline(self, capsys):
        code, report = run_json(capsys, "pipeline", "--simple", "A5",
                                "--sub", "A4", "--left", "var:A5",
                                "--right", "A")
        assert code == 0
        assert report["verdict"]["outcome"] == "epi"
        assert report["escape"]["top"]["order"] == 1


class TestEpiCommand:
    def test_neumann_instance(self, capsys):
        code, report = run_json(capsys, "epi", "--variety",
                                "prod(var:A5,A)", "--group", "A5",
                                "--sub", "A4", "--verify")
        assert code == 0
        assert report["outcome"] == "epi"
        assert report["certificate_reverified"] is True
        assert any("Neumann" in line for line in report["derivation"])

    def test_not_epi_exits_0(self, capsys):
        code, report = run_json(capsys, "epi", "--variety", "A",
                                "--group", "C4", "--sub", "(0 2)(1 3)")
        assert code == 0
        assert report["outcome"] == "not_epi"

    def test_unknown_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "fixtures.txt"
        empty.write_text("# none\n")
        code, report = run_json(capsys, "--fixtures", str(empty), "epi",
                                "--variety", "var:A5", "--group", "A5",
                                "--sub", "A4")
        assert code == 2
        assert report["outcome"] == "unknown"

    def test_named_subgroup_resolution(self, capsys):
        code, report = run_json(capsys, "bounds", "--variety",
                                "prod(var:A5,A)", "--group", "A5",
                                "--sub", "A4")
        assert code == 0
        assert report["exact"] is True
        assert report["lower_order"] == 60

    def test_subgroup_outside_group(self, capsys):
        code, out, err = run_cli(capsys, "epi", "--variety", "A",
                                 "--group", "A5", "--sub", "(0 1)")
        assert code == 1
        assert "outside" in err

    def test_budget_flag_stops_with_named_budget(self, capsys):
        code, report = run_json(capsys, "--max-enumerate", "10", "epi",
                                "--variety", "A", "--group", "S4",
                                "--sub", "(0 1 2)")
        assert code == 2
        assert report["outcome"] == "unknown"
        assert report["budgets"]["max_enumerate"] == 10
        stops = [n for n in report["notes"] if n.startswith("stopped:")]
        assert stops == ["stopped: max_enumerate: 24 exceeds the limit 10"]

    def test_budget_flags_are_the_budgets_fields(self):
        flags = {opt for action in build_parser()._actions
                 for opt in action.option_strings if opt.startswith("--max")}
        assert flags == {"--max-enumerate", "--max-normal-enumeration",
                         "--max-normalizer", "--max-hom-product",
                         "--max-wreath-top", "--max-tuples"}


class TestScenarios:
    def test_list(self, capsys):
        code, report = run_json(capsys, "scenario", "--list")
        assert code == 0
        names = {s["name"] for s in report["scenarios"]}
        assert {"neumann-a4a5", "mckay-bound-demo", "commofwr-fuzz",
                "qofsimple-a5c2", "escape-abelian", "escape-nil2",
                "magnus-corpus", "solvable-exhaustive"} <= names

    def test_single_scenario_runs(self, capsys):
        code, report = run_json(capsys, "scenario", "escape-abelian")
        assert code == 0
        assert report["ok"] is True

    def test_deterministic_reports(self, capsys):
        _, first, _ = run_cli(capsys, "scenario", "neumann-a4a5")
        _, second, _ = run_cli(capsys, "scenario", "neumann-a4a5")
        assert first == second
        _, third, _ = run_cli(capsys, "scenario", "commofwr-fuzz")
        _, fourth, _ = run_cli(capsys, "scenario", "commofwr-fuzz")
        assert third == fourth

    def test_unknown_scenario(self, capsys):
        code, out, err = run_cli(capsys, "scenario", "nope")
        assert code == 1
        assert "unknown scenario" in err


class TestFormatsAndFiles:
    def test_text_format(self, capsys):
        code, out, err = run_cli(capsys, "--format", "text", "order", "A5")
        assert code == 0
        assert "order: 60" in out

    def test_custom_catalog_file(self, capsys, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text(serialize_catalog(bundled_catalog()[:5]))
        code, report = run_json(capsys, "--catalog", str(path), "order",
                                "C2")
        assert code == 0 and report["order"] == 2

    def test_malformed_catalog_reports_line(self, capsys, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("ok | 2 | 1 0\nbad | 2 | 0 0\n")
        code, out, err = run_cli(capsys, "--catalog", str(path), "order",
                                 "C2")
        assert code == 1
        assert "line 2" in err

    def test_usage_error_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "order")
        assert code == 1 and not out
        assert err.startswith("usage: vlab")

    def test_fixture_generator_outside_its_group_reads_like_the_cli(
            self, capsys, tmp_path):
        path = tmp_path / "fixtures.txt"
        path.write_text("known-epi | A5 | (0 1) | var:A5 | a test\n")
        code, out, err = run_cli(capsys, "--fixtures", str(path), "order",
                                 "A5")
        assert code == 1 and not out
        assert err == ("parse error: line 1: subgroup generator (0 1) lies "
                       "outside the group\n")
        code, out, cli_err = run_cli(capsys, "epi", "--variety", "A",
                                     "--group", "A5", "--sub", "(0 1)")
        assert err.endswith(cli_err.removeprefix("error: "))

    def test_bad_cycle_in_a_fixture_file_names_its_line(self, capsys,
                                                         tmp_path):
        path = tmp_path / "fixtures.txt"
        path.write_text("# a comment\nknown-epi | A5 | (0 9) | var:A5 | a\n")
        code, out, err = run_cli(capsys, "--fixtures", str(path), "order",
                                 "A5")
        assert code == 1 and not out
        assert err == "parse error: line 2: cycle uses point 9 >= degree 5\n"

    def test_parse_error_names_position(self, capsys):
        code, out, err = run_cli(capsys, "magnus", "--word", "x1^",
                                 "-p", "2")
        assert code == 1
        assert "position" in err

    @pytest.mark.parametrize("argv", [
        ("magnus", "--word", "x1", "-p", "1"),
        ("magnus", "--word", "x1", "-p", "0"),
        ("magnus", "--word", "x1", "-p", "4"),
        ("verbal", "--group", "S3", "--descriptor", "Nc:x"),
        ("verbal", "--group", "S3", "--descriptor", "Sl:"),
        ("order", f"C{MAX_DEGREE + 1}"),
        ("magnus", "--word", "x1^" + "9" * 5000, "-p", "2"),
        ("magnus", "--word", "x" + "9" * 5000, "-p", "2"),
        ("order", "C" + "9" * 5000)])
    def test_bad_input_exits_1_without_a_traceback(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert err.strip() and "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        # 1763 = 41 * 43 passes the trial division by the first twelve
        # primes, so only the Miller-Rabin rounds refuse it
        (("magnus", "--word", "x1", "-p", "1763"),
         "error: p must be a prime >= 2, got 1763"),
        (("epi", "--variety", "A", "--group", "S3", "--sub", "(0 9)"),
         "parse error: cycle uses point 9 >= degree 3"),
        (("epi", "--variety", "A", "--group", "S3", "--sub", "S4"),
         "error: S4 needs degree 4 > ambient 3"),
        (("order", "C2" + "wrC2" * (MAX_NESTING + 1)),
         f"parse error: group name nests wr deeper than {MAX_NESTING}"),
        (("wreath", "--bottom", "C2", "--top", "C2" + "wrC2" * 1500),
         f"parse error: group name nests wr deeper than {MAX_NESTING}"),
        # a requested too long for str() shows as its digit count
        (("magnus", "--word", "(x1 x2)^" + "9" * 4300, "-p", "2"),
         "error: max_degree: a 4301-digit number exceeds the limit 10000"),
        (("verbal", "--group", "S3", "--descriptor", "laws:{x1 x200000}"),
         "error: max_degree: 200000 exceeds the limit 10000")])
    def test_bad_input_names_its_check(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert err.strip() == message

    def test_a_large_prime_passes_the_miller_rabin_rounds(self, capsys):
        code, report = run_json(capsys, "magnus", "--word", "x1",
                                "-p", "1000000007")
        assert code == 0 and report["consistent"] is True
        assert report["p"] == 1000000007

    @pytest.mark.parametrize("depth,code", [(MAX_NESTING, 0),
                                            (MAX_NESTING + 1, 1), (600, 1)])
    def test_descriptor_nesting_is_capped_at_parse_time(self, capsys, depth,
                                                        code):
        got, out, err = run_cli(capsys, "verbal", "--group", "S3",
                                "--descriptor",
                                "prod(" * depth + "A" + ",A)" * depth)
        assert got == code and "Traceback" not in err
        assert bool(out) == (code == 0)
        if code:
            assert err.startswith("parse error: prod( nests deeper than")

    @pytest.mark.parametrize("depth,code", [(MAX_NESTING, 0),
                                            (MAX_NESTING + 1, 1), (2000, 1)])
    def test_word_nesting_is_capped_at_parse_time(self, capsys, depth, code):
        got, out, err = run_cli(capsys, "magnus", "--word",
                                "(" * depth + "x1" + ")" * depth, "-p", "2")
        assert got == code and "Traceback" not in err
        assert bool(out) == (code == 0)
        if code:
            assert err.startswith("parse error: brackets nest deeper than")

    def test_magnus_refuses_a_witness_past_the_degree_cap(self, capsys):
        code, out, err = run_cli(capsys, "magnus", "--word", "x1^1073741824",
                                 "-p", "2")
        assert code == 1 and not out
        assert "max_degree" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,cap", [
        (("magnus", "--word", "(x1 x2)^1000000000", "-p", "2"), "max_degree"),
        (("order", "S200"), "max_chain_work")])
    def test_a_word_or_chain_past_its_cap_exits_1(self, capsys, argv, cap):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert cap in err and "Traceback" not in err

    def test_a_variety_named_past_the_degree_cap_exits_1(self, capsys):
        """var:NAME is refused when it is parsed, as --group NAME is."""
        code, out, err = run_cli(capsys, "epi", "--group", "A5", "--sub", "A4",
                                 "--variety", f"var:S{MAX_DEGREE + 1}")
        assert code == 1 and not out
        assert err == (f"error: max_degree: {MAX_DEGREE + 1} exceeds the "
                       f"limit {MAX_DEGREE}\n")

    def test_budget_flags_echoed(self, capsys):
        code, report = run_json(capsys, "--max-wreath-top", "6", "wreath",
                                "--bottom", "C2", "--top", "C3")
        assert code == 0
        assert report["budgets"]["max_wreath_top"] == 6


PINS = Path(__file__).resolve().parent.parent / "perfbench/data/pins.json"


def test_scenario_all_bytes_match_the_pinned_digest(capsys):
    """The report of `vlab scenario --all` is byte-identical to the one whose
    sha256 the benchmark pins."""
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    code, out, _ = run_cli(capsys, "scenario", "--all")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == pins["scenario_all_sha256"]
