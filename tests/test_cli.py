import inspect
import json

import pytest

from dyckgram import bijection, cli, oracle, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_enumerate_text(capsys):
    code, out, err = run(capsys, "enumerate", "-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "UUUDDD"
    assert lines[-1] == "UDUDUD"


def test_enumerate_json_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--upruns", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["paths"] == ["UUDD"]
    assert payload["quad"]["up_runs"] == "1"
    assert json.dumps(payload, indent=2, sort_keys=True) == out.rstrip("\n")


@pytest.mark.parametrize("argv", [
    ["count", "--n-max", "4"], ["series", "--family", "F3", "--order", "6"],
    ["verify", "--family", "F3", "--max-len", "6", "--n-max", "3"]], ids=lambda a: a[0])
def test_text_lines_are_built_only_for_text(capsys, monkeypatch, argv):
    # each command's (payload, text lines), as main is given them
    parser, results = cli._make_parser(), []
    parse = parser.parse_args

    def recording_parse(args):
        parsed = parse(args)
        command = parsed.run
        parsed.run = lambda a: results.append(command(a)) or results[-1]
        return parsed

    monkeypatch.setattr(parser, "parse_args", recording_parse)
    assert run(capsys, *argv, "--json")[0] == 0
    assert run(capsys, *argv)[0] == 0
    assert [inspect.getgeneratorstate(lines) for _, lines in results] == [
        inspect.GEN_CREATED, inspect.GEN_CLOSED]


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "--n-max", "4")
    assert code == 0
    assert out.splitlines() == ["n\tbrute\tdp", "0\t1\t1", "1\t1\t1",
                                "2\t2\t2", "3\t5\t5", "4\t14\t14"]


def test_count_single_method(capsys):
    code, payload, _ = run_json(capsys, "count", "--n-max", "3",
                                "--method", "dp", "--upruns", "3..")
    assert code == 0
    assert payload["methods"] == ["dp"]
    assert payload["counts"]["dp"] == ["1", "1", "2", "4"]
    assert payload["passed"] is True
    assert payload["witness"] is None


def test_count_dp_with_a_huge_run_range(capsys):
    # the DP sizes its run tables by the semilength, not by the set
    code, payload, _ = run_json(capsys, "count", "--n-max", "3", "--method", "dp",
                                "--upruns", "1..1000000000")
    assert code == 0
    assert payload["counts"]["dp"] == ["1", "0", "0", "0"]


def test_count_mismatch_exits_1(capsys, monkeypatch):
    # no real quad disagrees, so fake the dp side to exercise the protocol
    def fake_dp(n_max, quad):
        return tuple(0 if n == 2 else 1 for n in range(n_max + 1))

    monkeypatch.setattr(verify, "count_dp", fake_dp)
    code, payload, _ = run_json(capsys, "count", "--n-max", "3")
    assert code == 1
    assert payload["passed"] is False
    assert payload["witness"] == {"n": "2", "brute": "2", "dp": "0"}
    code, out, _ = run(capsys, "count", "--n-max", "3")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL: methods disagree at n=2"


def test_count_negative_n_max_exits_2(capsys):
    code, out, err = run(capsys, "count", "--method", "brute", "--n-max", "-2")
    assert code == 2
    assert out == ""
    assert "semilength must be >= 0" in err


def test_count_negative_cap_exits_2(capsys):
    code, out, err = run(capsys, "count", "--n-max", "3", "--cap", "-1",
                         "--method", "dp")
    assert code == 2
    assert out == ""
    assert "cap must be >= 0" in err


def test_enumerate_negative_cap_exits_2(capsys):
    code, out, err = run(capsys, "enumerate", "-n", "2", "--cap", "-1")
    assert code == 2
    assert out == ""
    assert "cap must be >= 0" in err


def test_bad_set_syntax_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "-n", "2", "--peaks", "5..3"])
    assert exc.value.code == 2
    assert "bad set" in capsys.readouterr().err


def test_non_ascii_digits_exit_2(capsys):
    # str.isdigit() accepts '²' and '٣', and int() reads '٣', '１２', '1_0',
    # '+5' and ' 8'; the set, parameter and integer arguments take an
    # optional '-' and 0-9 only
    for argv, message in (
            (["count", "--n-max", "3", "--peaks", "²"], "bad set"),
            (["verify", "--family", "F1", "--param", "A=--5"], "bad parameter"),
            (["count", "--n-max", "٣", "--method", "dp"], "argument --n-max"),
            (["count", "--n-max", "3", "--cap", "٣"], "argument --cap"),
            (["enumerate", "-n", "٣"], "argument -n"),
            (["series", "--family", "F3", "--order", "٦"], "argument --order"),
            (["verify", "--family", "F3", "--max-len", "１２"], "argument --max-len"),
            (["bijection", "--semilength", "٣"], "argument --semilength"),
            (["identify", "--terms", "١,١,٢,٥,١٤"], "argument --terms: bad terms"),
            (["count", "--n-max", "1_0", "--method", "dp"], "argument --n-max"),
            (["count", "--n-max", "+5", "--method", "dp"], "argument --n-max"),
            (["count", "--n-max", " 8", "--method", "dp"], "argument --n-max"),
            (["verify", "--family", "F1", "--param", "A=+5"], "bad parameter"),
            (["identify", "--terms", "1, 1,2,+5"], "argument --terms: bad terms")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    # malformed ASCII keeps argparse's own message
    with pytest.raises(SystemExit):
        cli.main(["count", "--n-max", "3x"])
    assert capsys.readouterr().err.endswith(
        "error: argument --n-max: invalid int value: '3x'\n")


def test_cap_exceeded_exits_2(capsys):
    code, out, err = run(capsys, "enumerate", "-n", "30")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "--family", "F3", "--order", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P = 1 + z*P + z^2*P^2"
    assert lines[1] == "P: 1, 1, 2, 4, 9, 21"
    # an empty --param reads as no parameters
    assert run(capsys, "series", "--family", "F3", "--order", "6", "--param", "") == \
        (0, out, "")


def test_series_with_params_and_grammar_dump(capsys):
    code, payload, _ = run_json(capsys, "series", "--family", "F5",
                                "--param", "A=2,B=1", "--order", "8",
                                "--dump-grammar")
    assert code == 0
    assert payload["coefficients"]["P"] == ["1", "0", "1", "0", "3", "0", "12", "0"]
    assert payload["body"] == ["P -> eps", "P -> U U P D P D P"]


def test_series_bad_params_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--family", "F5", "--param", "A=1,B=2"])
    assert exc.value.code == 2


def test_repeated_param_name_exits_2(capsys):
    # a repeated name must not let its last value win silently
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family", "F5", "--param", "A=2,B=1,A=3",
                  "--n-max", "3", "--max-len", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter 'A' given twice" in captured.err


def test_verify_family_passes(capsys):
    code, payload, _ = run_json(capsys, "verify", "--family", "F9",
                                "--param", "r=1", "--max-len", "12",
                                "--n-max", "6")
    assert code == 0
    assert payload["passed"] is True
    assert payload["witness"] is None
    assert {c["name"] for c in payload["checks"]} == {
        "lowering matches stated system",
        "counts agree (brute = dp = series)",
        "equation multisets equal"}
    assert all(c["passed"] for c in payload["checks"])


def test_verify_text_lines(capsys):
    code, out, _ = run(capsys, "verify", "--family", "F1", "--max-len", "10",
                       "--n-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("F1: ")
    assert all(line.startswith("PASS ") for line in lines[1:-1])
    assert lines[-1] == "PASS"


def test_verify_negative_max_len_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--family", "F3", "--max-len", "-5")
    assert code == 2
    assert out == ""
    assert "max_len must be >= 0" in err


def test_verify_runs_past_the_brute_force_cap(capsys):
    code, payload, _ = run_json(capsys, "verify", "--family", "F1",
                                "--n-max", "40", "--max-len", "8")
    assert code == 0
    assert payload["passed"] is True
    assert "brute" not in payload["counts"]
    expected = ["1"] + [str(2 ** (n - 1)) for n in range(1, 41)]
    assert payload["counts"]["dp"] == payload["counts"]["series"] == expected
    counts = next(c for c in payload["checks"] if c["name"].startswith("counts agree"))
    assert counts == {"name": "counts agree (dp = series)", "passed": True,
                      "detail": "brute force skipped above cap 16"}


def test_verify_cap_lowers_the_brute_force_reach(capsys):
    code, payload, _ = run_json(capsys, "verify", "--family", "F1", "--n-max", "12",
                                "--max-len", "8", "--cap", "8")
    assert code == 0
    assert payload["passed"] is True
    assert "brute" not in payload["counts"]
    counts = next(c for c in payload["checks"] if c["name"].startswith("counts agree"))
    assert counts["detail"] == "brute force skipped above cap 8"


def test_verify_cap_below_the_word_checks_exits_2(capsys):
    # the default --max-len 20 enumerates words to semilength 10
    code, out, err = run(capsys, "verify", "--family", "F1", "--n-max", "12",
                         "--cap", "8")
    assert code == 2
    assert out == ""
    assert "--max-len" in err and "--cap" in err


def test_verify_cap_skips_brute_force_and_keeps_word_checks(capsys):
    code, out, err = run(capsys, "verify", "--family", "F1", "--n-max", "12",
                         "--cap", "10")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert ("PASS counts agree (dp = series) "
            "(brute force skipped above cap 10)") in lines
    assert "PASS grammar unambiguous" in lines
    assert "PASS grammar words = oracle language" in lines
    assert lines[-1] == "PASS"


def test_verify_negative_cap_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--family", "F1", "--n-max", "3",
                         "--max-len", "4", "--cap", "-1")
    assert code == 2
    assert out == ""
    assert "cap must be >= 0" in err


def test_series_order_below_1_exits_2(capsys):
    code, out, err = run(capsys, "series", "--family", "F3", "--order", "0")
    assert code == 2
    assert out == ""
    assert "order must be >= 1" in err


def test_verify_negative_n_max_exits_2_before_lowering(capsys, monkeypatch):
    def no_lower(body):
        raise AssertionError("lower called for a negative n_max")

    monkeypatch.setattr(verify, "lower", no_lower)
    code, out, err = run(capsys, "verify", "--family", "F1", "--n-max", "-1")
    assert code == 2
    assert out == ""
    assert "n_max must be >= 0, got -1" in err


def test_verify_failure_exits_1(capsys, monkeypatch):
    from dyckgram.families import build as real_build
    from dyckgram.intsets import RestrictionQuad

    def bad_build(family, **params):
        return real_build(family, **params)._replace(
            quad=RestrictionQuad.parse(), count_reference=None)

    monkeypatch.setattr(cli, "build", bad_build)
    code, payload, _ = run_json(capsys, "verify", "--family", "F3",
                                "--max-len", "8", "--n-max", "4")
    assert code == 1
    assert payload["passed"] is False
    assert payload["witness"]["check"] == "counts agree (brute = dp = series)"
    assert "n=3" in payload["witness"]["detail"]


def test_identify(capsys):
    code, payload, _ = run_json(capsys, "identify", "--terms", "1,1,2,4,9,21")
    assert code == 0
    assert payload["matches"] == ["MOTZKIN"]
    code, out, _ = run(capsys, "identify", "--terms", "1,1,2,4")
    assert out.splitlines() == ["MOTZKIN", "POWERS_OF_TWO"]


def test_identify_too_short_exits_2(capsys):
    code, out, err = run(capsys, "identify", "--terms", "1,1,2")
    assert code == 2
    assert "at least 4" in err


def test_bijection(capsys):
    code, payload, _ = run_json(capsys, "bijection", "--semilength", "6")
    assert code == 0
    assert payload["passed"] is True
    assert [r["paths"] for r in payload["rows"]] == \
        ["1", "1", "1", "2", "3", "6", "10"]
    assert all(r["round_trip"] for r in payload["rows"])


def test_bijection_negative_semilength_exits_2(capsys):
    code, out, err = run(capsys, "bijection", "--semilength", "-3")
    assert code == 2
    assert out == ""
    assert "semilength must be >= 0" in err


def test_bijection_above_cap_exits_2_before_enumerating(capsys, monkeypatch):
    # neither side is enumerated: no path is walked and no walk listed
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumeration started above the cap")

    monkeypatch.setattr(oracle, "walk", no_enumeration)
    monkeypatch.setattr(bijection, "product", no_enumeration)  # lists the walks
    code, out, err = run(capsys, "bijection", "--semilength", "5", "--cap", "3")
    assert code == 2
    assert out == ""
    assert "requested semilength 5 exceeds cap 3" in err


def test_json_numbers_are_strings(capsys):
    _, payload, _ = run_json(capsys, "count", "--n-max", "3")
    for seq in payload["counts"].values():
        assert all(isinstance(c, str) for c in seq)
    assert payload["n_max"] == "3"


def _outcome(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_reused_unchanged(capsys):
    valid = ("verify", "--family", "F6", "--param", "A=1,B=3",
             "--max-len", "10", "--n-max", "5", "--json")
    usage_errors = (("series", "--family", "F5", "--param", "A=1,B=2"),
                    ("count", "--peaks", "5..3"))
    firsts = {}
    for argv in (valid,) + usage_errors:
        cli._make_parser.cache_clear()
        firsts[argv] = _outcome(capsys, argv)
    assert firsts[valid][0] == 0
    assert [firsts[a][0] for a in usage_errors] == [2, 2]
    cli._make_parser.cache_clear()
    parser = cli._make_parser()
    for argv in usage_errors + (valid, valid) + usage_errors:
        assert _outcome(capsys, argv) == firsts[argv]
    assert cli._make_parser() is parser


def test_dp_n_max_over_budget_exits_2_before_counting(capsys, monkeypatch):
    from dyckgram import oracle

    def no_tables(*args, **kwargs):
        raise AssertionError("count_dp started above its budget")

    monkeypatch.setattr(oracle, "avoid_tables", no_tables)
    code, out, err = run(capsys, "count", "--method", "dp",
                         "--n-max", "1000000000")
    assert code == 2
    assert out == ""
    assert err == (f"error: requested DP semilength 1000000000 exceeds cap "
                   f"{oracle.DP_MAX_SEMILENGTH}\n")


def test_verify_dp_budget_exits_2_before_lowering_or_joining(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("verify started work above the DP budget")

    monkeypatch.setattr(oracle, "walk", no_work)
    monkeypatch.setattr(verify, "lower", no_work)
    code, out, err = run(capsys, "verify", "--family", "F6", "--param", "A=1,B=6",
                         "--n-max", "501", "--max-len", "32")
    assert code == 2
    assert out == ""
    assert err == "error: requested DP semilength 501 exceeds cap 500\n"


def test_joined_word_budget_exits_2_before_any_word_is_joined(capsys, monkeypatch):
    def no_join(*args):
        raise AssertionError("a word was joined over the budget")

    monkeypatch.setattr(oracle, "joined_words", no_join)
    monkeypatch.setattr(oracle, "WORD_BUDGET", 41)
    # semilength 5 has 42 paths
    code, out, err = run(capsys, "enumerate", "-n", "5")
    assert (code, out) == (2, "")
    assert err == "error: requested joined words 42 exceeds cap 41\n"
    # F3's words of semilength 0..4 number 1 + 1 + 2 + 4 + 9: each
    # semilength fits, their running total does not, and semilength 4's
    # words are never joined
    joined = []
    monkeypatch.setattr(verify, "joined_codes", lambda join, n: joined.append(n) or ())
    monkeypatch.setattr(oracle, "WORD_BUDGET", 16)
    code, out, err = run(capsys, "verify", "--family", "F3", "--max-len", "8")
    assert (code, out) == (2, "")
    assert err == "error: requested joined words 17 exceeds cap 16\n"
    assert joined == [0, 1, 2, 3]


def test_bijection_budget_exits_2_before_anything_is_enumerated(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("enumerated over the budget")

    # semilength 10 tries the 2^9 +-1 sequences of 9 steps
    monkeypatch.setattr(oracle, "WORD_BUDGET", 512)
    assert run(capsys, "bijection", "--semilength", "10")[0] == 0
    monkeypatch.setattr(bijection, "product", never)  # lists the walks
    monkeypatch.setattr(bijection, "joined_words", never)
    for budget, argv, err in [
            (511, ["10"], "walk candidates 512 exceeds cap 511"),
            (511, ["10", "--cap", "5"], "semilength 10 exceeds cap 5"),  # the cap first
            (0, ["0"], "joined words 1 exceeds cap 0")]:  # no walk, one path
        monkeypatch.setattr(oracle, "WORD_BUDGET", budget)
        assert run(capsys, "bijection", "--semilength", *argv) == (
            2, "", f"error: requested {err}\n")


def test_series_order_over_budget_exits_2_before_solving(capsys):
    from dyckgram import series
    from dyckgram.families import build
    from dyckgram.grammar import lower
    from dyckgram.oracle import ResourceLimit

    # the budget is checked before anything is allocated, so the CLI run
    # below allocates no 10^9-entry list
    with pytest.raises(ResourceLimit):
        series.solve(lower(build("F1").body), series.MAX_ORDER + 1)
    code, out, err = run(capsys, "series", "--family", "F1",
                         "--order", "1000000000")
    assert code == 2
    assert out == ""
    assert err == (f"error: requested series order 1000000000 exceeds cap "
                   f"{series.MAX_ORDER}\n")
