"""CLI behaviour: exit codes, reports, JSON stability."""

import hashlib
import json
import sys
import time
import types
from pathlib import Path

import pytest
from cli_runner import invoke

from tarski_lab.cli import run

GOLDEN = Path(__file__).parent / "golden"


class TestExitCodes:
    def test_true_verdict_exits_zero(self):
        result = invoke(["order", "--universe", "a,b,c", "I", "cxy {a} {b}"])
        assert result.exit_code == 0
        assert "verdict: true" in result.output

    def test_false_verdict_exits_one_with_witness(self):
        result = invoke(
            ["order", "--universe", "a,b,c", "cxy {a} {b}", "cxy {c} {b}"]
        )
        assert result.exit_code == 1
        assert "witness: {b}" in result.output

    def test_parse_error_exits_two(self):
        result = invoke(["order", "--universe", "a,b,c", "cxy {a}", "I"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("element", ["²", "٣"])
    def test_non_ascii_digit_element_is_parse_error(self, element):
        # str.isdigit accepts both; int() rejects the superscript and reads the Arabic-Indic digit as 3.
        result = invoke(["check", "--universe", "cofinite", f"cxy {{{element}}} {{1}}"])
        assert result.exit_code == 2
        assert "Error: line 1, column " in result.output
        assert f"expected a natural number, found '{element}'" in result.output

    @pytest.mark.parametrize(
        "universe,expression,message",
        [
            ("a,b", "cxy {z} {a}", "column 6: unknown symbol 'z'"),
            ("a,b", "cxy {a b} {a}", "column 8: expected ',' or '}', found 'b'"),
            ("a,b", "s {a} z", "column 7: unknown symbol 'z'"),
            ("a,b", "cxy co{a} {a}", "column 5: 'co' literals exist only over the infinite universe"),
            ("a,b", "meet(I,foo)", "column 8: unknown operator form 'foo'"),
            ("cofinite", "cxy {²} {1}", "column 6: expected a natural number, found '²'"),
        ],
    )
    def test_parse_error_names_the_offending_column(self, universe, expression, message):
        result = invoke(["check", "--universe", universe, expression])
        assert result.exit_code == 2
        assert f"Error: line 1, {message}" in result.output

    def test_universe_required(self):
        result = invoke(["check", "I"])
        assert result.exit_code == 2

    def test_constraint_error_exits_two(self):
        result = invoke(["check", "--universe", "a,b,c", "s {a,b} c"])
        assert result.exit_code == 2

    def test_oversized_universe_is_refused(self):
        symbols = ",".join(f"s{i}" for i in range(25))
        result = invoke(["order", "--universe", symbols, "cxy {s0} {s1}", "I"])
        assert result.exit_code == 2
        assert "universe of size 25 is too large" in result.output

    @pytest.mark.parametrize("command, value", [("meet", "{s0}"), ("wjoin", "{s0,s1}")])
    def test_point_evaluation_on_a_large_universe(self, command, value):
        # Only sweeps are refused; one point of a system operand stays cheap at 30 symbols.
        symbols = ",".join(f"s{i}" for i in range(30))
        args = [command, "--universe", symbols, "--at", "{s0}", "system[{s0,s1};L]", "I"]
        result = invoke(args)
        assert result.exit_code == 0
        assert f"value: {value}" in result.output

    @pytest.mark.parametrize("cap", ["0", "-1", "64"])
    def test_cap_is_an_unknown_option(self, cap):
        # ℕ is decided on a finite model, so there is no horizon to set.
        args = ["check", "--universe", "cofinite", "--cap", cap, "meet(I,cxy {0} {1})"]
        result = invoke(args)
        assert result.exit_code == 2
        error = result.output.splitlines()[-1]
        assert "No such option" in error and "--cap" in error

    def test_words_decode_past_the_int_digit_limit_is_a_usage_error(self):
        # int() refuses a string of more than 4,300 digits; CODE is then an invalid integer.
        result = invoke(["words", "--alphabet", "ab", "decode", "7" * 5000])
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.splitlines()[-1].startswith("Error: Invalid value for 'CODE': '7777")
        assert "Traceback" not in result.stderr

    def test_run_helper_matches(self):
        assert run(["order", "--universe", "a,b", "I", "cxy {a} {b}"]) == 0
        assert run(["order", "--universe", "a,b", "U", "I"]) == 1
        assert run(["no-such-command"]) == 2


class TestJsonStability:
    def test_byte_stable_across_runs(self):
        args = ["enumerate", "--n", "2", "--include-top", "--json"]
        first = invoke(args).output
        second = invoke(args).output
        assert first == second
        payload = json.loads(first)
        assert payload["data"]["count"] == 7

    @pytest.mark.parametrize(
        "args,digest",
        [
            (
                ["enumerate", "--n", "4", "--list-systems"],
                "43bfbc185132a1d3d9d5dac37a1ad07076a4b08942b60a54848591c559ae6318",
            ),
            (
                ["enumerate", "--n", "4", "--include-top", "--list-systems"],
                "5ef07ac92179dc9079b07a8c2e73ca54e70ba38446bc0b4ff892cfb6d36e654f",
            ),
            (["atoms", "--n", "4"], "0b3d61771150f91b74087531bfe631bd7e90b70b3e6b8ecdbfed538b532d40c9"),
        ],
    )
    def test_moore_family_output_is_pinned(self, args, digest):
        # The SHA-256 of each report as the validating per-system build wrote it.
        output = invoke(args + ["--json"]).output
        assert hashlib.sha256(output.encode()).hexdigest() == digest

    def test_json_has_no_timing(self):
        result = invoke(["check", "--universe", "a,b", "I", "--json"])
        payload = json.loads(result.output)
        assert "time" not in result.output
        assert set(payload) == {"command", "data", "verdict"}

    def test_text_report_has_timing(self):
        result = invoke(["check", "--universe", "a,b", "I"])
        assert "time-ms:" in result.output


class TestCommands:
    def test_check_cofinite_caveat(self):
        result = invoke(
            ["check", "--universe", "cofinite", "cprime {0} co{0}", "--json"]
        )
        assert result.exit_code == 0  # still a consequence operator
        payload = json.loads(result.output)
        report = payload["data"]["axiom-report"]
        assert report["axiom-iii"]["passed"] is False
        assert report["axiom-iii"]["witness"] == {"set": "co{0}", "element": 0}

    def test_meet_lists_closed_sets(self):
        result = invoke(
            ["meet", "--universe", "a,b,c", "cxy {a} {b}", "cxy {c} {b}", "--json"],
        )
        payload = json.loads(result.output)
        assert "{a,b,c}" in payload["data"]["closed-sets"]

    def test_wjoin_at_set(self):
        result = invoke(
            [
                "wjoin", "--universe", "a,b,c",
                "cxy {a} {b}", "cxy {c} {b}", "--at", "{b}", "--json",
            ],
        )
        payload = json.loads(result.output)
        assert payload["data"]["value"] == "{a,b,c}"

    def test_complement(self):
        result = invoke(
            ["complement", "--universe", "a,b,c", "cxy {a} {b}", "cxy {a,c} {b}", "--json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["data"]["lattice-check"] is True

    def test_chain_witness_pair(self):
        result = invoke(
            ["chain", "--universe", "a,b,c", "I", "cxy {a} {b}", "cxy {c} {b}"],
        )
        assert result.exit_code == 1
        assert "incomparable-pair" in result.output

    def test_sublattice_all_generators(self):
        result = invoke(
            ["sublattice", "--universe", "a,b,c", "--b", "{b}", "--all-generators", "--json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["data"]["non-chain-witness"]["first"] == "{a,b}"

    def test_descend(self):
        result = invoke(["descend", "100", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["data"]["length"] == 100

    def test_enumerate_excludes_top_by_default(self):
        result = invoke(["enumerate", "--n", "3", "--json"])
        assert json.loads(result.output)["data"]["count"] == 60

    def test_atoms(self):
        result = invoke(["atoms", "--n", "2", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["data"]["dense-cover"] is True

    @pytest.mark.parametrize("size", ["0", "1", "5"])
    def test_atoms_size_out_of_range_is_usage_error(self, size):
        result = invoke(["atoms", "--n", size])
        assert result.exit_code == 2
        assert f"Error: atoms are checked for 2 <= n <= 4, got {size}" in result.output

    def test_enumerate_count_includes_top_on_request(self):
        result = invoke(["enumerate", "--n", "4", "--include-top", "--json"])
        assert json.loads(result.output)["data"]["count"] == 2480

    def test_lemma26(self):
        result = invoke(["lemma26", "--universe", "a,b,c", "s {a} b", "--json"])
        assert json.loads(result.output)["data"]["witness"] == "a"

    def test_lemma26_axiomless_is_usage_error(self):
        result = invoke(["lemma26", "--universe", "a,b,c", "cxy {a} {b}"])
        assert result.exit_code == 2

    def test_theories(self):
        result = invoke(
            ["theories", "--universe", "a,b,c", "cxy {a} {b}", "--json"]
        )
        payload = json.loads(result.output)
        assert payload["data"]["count"] == 6

    def test_theories_of_a_system_on_twenty_symbols(self):
        # A system's fixed points are its own closed sets; no 2^20-lane table is built.
        symbols = [f"s{i}" for i in range(20)]
        full = "{" + ",".join(symbols) + "}"
        result = invoke(["theories", "--universe", ",".join(symbols), "system[{s0};L]", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["data"] == {
            "closed-sets": ["{s0}", full],
            "count": 2,
            "operator": f"system[{{s0}};{full}]",
        }

    def test_spec_file_bindings(self, tmp_path):
        spec = tmp_path / "f.ops"
        spec.write_text("universe finite a b c\nA = cxy {a} {b}\nB = cxy {a,c} {b}\n")
        result = invoke(["order", "--spec", str(spec), "A", "B"])
        assert result.exit_code == 0

    def test_words_roundtrip(self):
        encoded = invoke(["words", "--alphabet", "abc", "encode", "ab", "--json"])
        code = json.loads(encoded.output)["data"]["code"]
        decoded = invoke(
            ["words", "--alphabet", "abc", "decode", str(code), "--json"]
        )
        assert json.loads(decoded.output)["data"]["word"] == "ab"

    def test_words_decode_over_length_bound_exits_two(self):
        started = time.perf_counter()
        result = invoke(["words", "--alphabet", "a", "decode", "5000000"])
        assert result.exit_code == 2
        assert "5000001 symbols; the bound is 1000000" in result.output
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("command", ["encode", "classify"])
    def test_words_report_too_large_to_render_exits_two(self, command):
        # A code of 9,300 symbols over three letters has more than str()'s 4,300 digits.
        result = invoke(["words", "--alphabet", "abc", command, "abc" * 3100, "--json"])
        assert result.exit_code == 2
        assert "4300 digits" in result.output
        assert result.stdout == ""

    def test_words_split(self):
        result = invoke(
            ["words", "--alphabet", "abc", "split", "abc", "--k", "1", "--json"]
        )
        payload = json.loads(result.output)
        assert payload["data"]["splits"] == ["a,bc", "ab,c"]

    @pytest.mark.parametrize("word, k", [("ab" * 300, 2), ("ab" * 6000, 3), ("ab" * 6000, 6000), ("a" * 1002, 1)])
    def test_words_split_over_the_output_bound_exits_two_before_enumerating(self, monkeypatch, word, k):
        import tarski_lab.words

        monkeypatch.setattr(tarski_lab.words, "decompositions", lambda *args: pytest.fail("enumerated"))
        started = time.perf_counter()
        result = invoke(["words", "--alphabet", "ab", "split", "--k", str(k), word])
        assert result.exit_code == 2 and result.stdout == ""
        assert result.output.splitlines()[-1] == (
            f"Error: the splits of a {len(word)}-symbol word at --k {k} exceed the output bound of 1000000 symbols"
        )
        assert time.perf_counter() - started < 1.0

    def test_words_split_at_the_output_bound_is_listed(self):
        # 998 one-cut splits of 1,000 symbols each: 998,000 symbols, within the bound.
        result = invoke(["words", "--alphabet", "a", "split", "--k", "1", "a" * 999, "--json"])
        assert result.exit_code == 0 and json.loads(result.output)["data"]["count"] == 998

    def test_words_classify(self):
        result = invoke(
            ["words", "--alphabet", "abcehimst", "classify", "mathematics", "--json"],
        )
        payload = json.loads(result.output)
        assert payload["data"]["size"] == 11
        assert payload["data"]["decompositions"] == 1024

    def test_words_equiv_verdict(self):
        good = invoke(
            ["words", "--alphabet", "abcehimst", "equiv", "math,e,mat,ics", "mathematics"],
        )
        assert good.exit_code == 0
        bad = invoke(["words", "--alphabet", "ab", "equiv", "ab", "ba"])
        assert bad.exit_code == 1

    def test_concurrent_from_file(self, tmp_path):
        edges = tmp_path / "rel.txt"
        edges.write_text("".join(f"{i} {j}\n" for i in range(3) for j in range(3) if i <= j))
        result = invoke(["concurrent", str(edges), "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["data"]["bound"] == "2"

    def test_concurrent_failing_subset(self, tmp_path):
        edges = tmp_path / "rel.txt"
        edges.write_text("".join(f"{i} {j}\n" for i in range(3) for j in range(3) if i < j))
        result = invoke(
            ["concurrent", str(edges), "--domain", "0,1,2", "--json"]
        )
        assert result.exit_code == 1
        assert json.loads(result.output)["data"]["failing-subset"] == ["2"]

    def test_demo_list(self):
        result = invoke(["demo", "--list", "--json"])
        names = json.loads(result.output)["data"]["demos"]
        assert "example-2.8" in names and len(names) == 11

    def test_unknown_demo_is_usage_error(self):
        result = invoke(["demo", "no-such-demo"])
        assert result.exit_code == 2

    def test_unknown_demo_message_is_bare(self):
        result = invoke(["demo", "nope"])
        assert "Error: unknown demo 'nope'; known: example-2.8," in result.output

    def test_unknown_symbol_message_is_bare(self):
        result = invoke(["words", "--alphabet", "ab", "encode", "abz"])
        assert result.exit_code == 2
        assert "Error: symbol 'z' is not in the alphabet\n" in result.output

    @pytest.mark.parametrize("edges", ["x\n", "0 1\n# note\n\n0 1 2\n"])
    def test_concurrent_malformed_line_is_usage_error(self, edges):
        result = invoke(["concurrent", "-", "--json"], input=edges)
        assert result.exit_code == 2
        line = edges.count("\n")
        assert f"Error: line {line}: expected 'x y'" in result.output


class TestFrontEnd:
    """What the standard-library front end keeps of click's conventions."""

    def test_bare_group_prints_its_help_on_stderr_and_exits_two(self):
        help_text = json.loads((GOLDEN / "cli-help.json").read_text(encoding="utf-8"))
        result = invoke([])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == help_text[0]["stdout"]

    def test_keyboard_interrupt_returns_130(self, monkeypatch):
        import tarski_lab.classify

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(tarski_lab.classify, "count_closure_systems", interrupted)
        result = invoke(["enumerate", "--n", "2"])
        assert (result.exit_code, result.stdout, result.stderr) == (130, "", "\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "I", "--universe=a,b", "--json"],
            ["check", "--json", "I", "--universe", "a,b"],
            ["check", "--universe", "a,b", "--json", "--", "I"],
        ],
    )
    def test_options_go_anywhere_and_take_attached_values(self, argv):
        result, expected = invoke(argv), invoke(["check", "--universe", "a,b", "I", "--json"])
        assert (result.exit_code, result.stdout) == (0, expected.stdout)

    def test_a_usage_error_shows_the_usage_line_and_a_help_hint(self):
        result = invoke(["words", "--alphabet", "ab", "split", "ab"])
        assert result.stderr == (
            "Usage: tarski-lab words split [OPTIONS] TEXT\n"
            "Try 'tarski-lab words split --help' for help.\n"
            "\n"
            "Error: Missing option '--k'.\n"
        )

    @pytest.mark.parametrize(
        "path, package, name",
        [
            ("/usr/local/bin/tarski-lab", None, "tarski-lab"),
            ("/src/tarski_lab/cli.py", "tarski_lab", "python -m tarski_lab.cli"),
        ],
    )
    def test_the_program_name_is_the_one_it_was_started_under(self, monkeypatch, capsys, path, package, name):
        started = types.ModuleType("__main__")
        started.__package__ = package
        monkeypatch.setitem(sys.modules, "__main__", started)
        monkeypatch.setattr(sys, "argv", [path, "nope"])
        assert run() == 2
        assert capsys.readouterr().err.startswith(f"Usage: {name} [OPTIONS] COMMAND [ARGS]...\n")
