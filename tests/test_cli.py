import gc
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import seqprove
from seqprove.calculus import build_g3ix, build_g4ix, builtin_modal_rules
from seqprove.cli import _resolve_calculus, main
from seqprove.dsl import parse_rules
from seqprove.prover import check_derivation, derivation_from_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_tautology(capsys):
    code, out, _ = run(capsys, "prove", "--calculus", "G4ip", "p -> p")
    assert code == 0
    assert out.strip() == "PROVABLE"


def test_prove_modal_k(capsys):
    code, out, _ = run(capsys, "prove", "--calculus", "G4i+R_K", "([]p & []q) -> [](p & q)")
    assert code == 0
    assert "PROVABLE" in out


def test_prove_peirce_unprovable_g3(capsys):
    code, out, _ = run(capsys, "prove", "--calculus", "G3ip", "((p -> q) -> p) -> p")
    assert code == 1
    assert out.strip() == "UNPROVABLE"


def test_prove_sequent_flag(capsys):
    code, out, _ = run(capsys, "prove", "--calculus", "G4ip", "--sequent", "p & q => q")
    assert code == 0


def test_prove_parse_error(capsys):
    code, _, err = run(capsys, "prove", "--calculus", "G4ip", "p ->")
    assert code >= 3
    assert "parse error" in err


@pytest.mark.parametrize("argv", [
    ["prove", "--calculus", "G3ip", "--engine", "g3", "p"],
    ["prove", "--calculus", "G4ip", "--match", "exhaustive", "p"],
    ["equiv-test", "--count", "1", "--match", "greedy"],
], ids=["prove-engine", "prove-match", "equiv-test-match"])
def test_search_strategy_options_are_unknown(capsys, argv):
    # the calculus's style picks the engine, and search matches greedily
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "unrecognized arguments" in err


def test_prove_emit_json(capsys):
    code, out, _ = run(capsys, "prove", "--calculus", "G4ip", "--emit", "json", "p -> p")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "provable"
    assert payload["derivation"]["rule"] == "RImp"
    assert list(payload["derivation"].keys()) == ["sequent", "rule", "children"]


@pytest.mark.parametrize("emit", ["verdict", "text", "json"])
def test_prove_leaves_no_reference_cycles(capsys, emit):
    # the termination guard's template search, the argument parser and the
    # output writers must not leave their objects to the cyclic collector.
    # The first call builds what later calls reuse (the parser leaves cycles
    # once, when it is built).
    argv = ["prove", "--calculus", "G4i+R_K", "--sequent", "[]p, []q => [](p & q)",
            "--emit", emit]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert code == 0
    verdict = '"verdict": "provable"' if emit == "json" else "PROVABLE"
    assert capsys.readouterr().out.count(verdict) == 2


@pytest.mark.parametrize("argv, expected", [
    (["--calculus", "G4i+R_K", "--sequent", "[]p, []q => [](p & q)"], 0),
    (["--calculus", "G4ip", "p | ~p"], 1),
    (["--calculus", "G3ip", "--nodes", "3", "((p -> q) -> p) -> p"], 2),
    (["--calculus", "G4ip", "--sequent", "é, é -> q => q"], 0),
])
def test_prove_emit_json_is_json_dumps_indent_2(capsys, argv, expected):
    code, out, _ = run(capsys, "prove", *argv, "--emit", "json")
    assert code == expected
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def run_process(*argv, **env):
    """Run ``python -m seqprove`` in a fresh interpreter on these sources."""
    src = os.path.dirname(os.path.dirname(seqprove.__file__))
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "seqprove", *argv], env=env,
                          capture_output=True, timeout=120)


def run_to_closed_pipe(argv, buffered: bool):
    """Run ``python -m seqprove`` with stdout on a pipe whose read end is
    already closed, so that the first write to it fails."""
    src = os.path.dirname(os.path.dirname(seqprove.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "seqprove", *argv], env=env,
                              stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)


CONJUNCTION = " & ".join(f"p{i}" for i in range(12))


@pytest.mark.parametrize("argv, buffered", [
    # a short verdict stays in the buffer until main flushes it
    (["prove", "--calculus", "G4ip", "--sequent", "p, p -> q => q"], True),
    (["prove", "--calculus", "G4ip", "--sequent", "p, p -> q => q"], False),
    # JSON larger than a pipe's buffer fails inside print
    (["prove", "--calculus", "G4ip", "--sequent", f"{CONJUNCTION} => {CONJUNCTION}",
      "--emit", "json"], True),
    # argparse writes the help text and exits; main flushes it all the same
    (["prove", "--help"], True),
    # unbuffered, the help text's write itself fails
    (["prove", "--help"], False),
], ids=["verdict-buffered", "verdict-unbuffered", "json-large", "help", "help-unbuffered"])
def test_closed_stdout_is_a_usage_error(capsys, argv, buffered):
    if "json" in argv:
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(out.encode()) > 8192
    closed = run_to_closed_pipe(argv, buffered)
    assert closed.returncode == 3
    err = closed.stderr.decode()
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines() == ["seqprove: error: standard output is closed"]


def test_prove_output_does_not_depend_on_hash_seed():
    # formula hashes mix class identity and string hashes, which differ from
    # process to process; nothing printed may follow hash order
    argv = ["prove", "--calculus", "G4i+R_K", "--sequent",
            "[](p -> q), [](q -> r), []p, (s | []t) -> u => []r & (s -> u)", "--emit", "json"]
    runs = [run_process(*argv, PYTHONHASHSEED=seed) for seed in ("1", "2")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["verdict"] == "provable"


# sha256 of each sampling command's stdout, recorded when every multiset was
# sorted at construction and every formula stored a hash of its structure
SAMPLING_OUTPUTS = {
    ("equiv-test", "--modal", "R_K,R_T", "--count", "200", "--seed", "7"):
        (0, "1b6c07e3c59b2cdb87d94ff2c08f7c9271de047565d928d9bd1ad24d666af441"),
    ("check-termination", "--rules", "R_K,R_D,R_T,R_K4,R_GL,R_SL,R_X"):
        (1, "7ccafc593644a71306d30584abd85f5f95135ee49ff8f6c2afab3c65e1a1c1a9"),
}


@pytest.mark.parametrize("argv", list(SAMPLING_OUTPUTS), ids=lambda argv: argv[0])
def test_sampling_output_is_pinned(argv):
    # the sampled sequents, instantiations and counterexamples follow
    # canonical order, never hash or construction order
    code, digest = SAMPLING_OUTPUTS[argv]
    for seed in ("1", "2"):
        run = run_process(*argv, PYTHONHASHSEED=seed)
        assert run.returncode == code
        assert hashlib.sha256(run.stdout).hexdigest() == digest


@pytest.mark.parametrize("calc, rule, sequent", [
    ("G4i", "rule DD { premises: G, phi => D ; conclusion: box G, box G, box phi => D }",
     "[]p, []p, []false =>"),
    ("G3i", "rule KP { premises: G => phi ; conclusion: P, G, box G => box phi }",
     "[]p, []q, p => []p"),
    ("G4i", "rule CC { premises: G, phi => D ; conclusion: G, G, box phi => D }",
     "p, p, []false =>"),
], ids=["DD", "KP", "CC"])
def test_greedy_match_splits_a_repeated_context(capsys, tmp_path, calc, rule, sequent):
    # a context named twice must share the formulas between its uses: greedy
    # matching that gives the first use all it can take finds no instance
    f = tmp_path / "repeated.rules"
    f.write_text(rule + "\n")
    rules, errors = parse_rules(rule)
    assert not errors
    calculus = (build_g4ix if calc == "G4i" else build_g3ix)(rules)
    code, out, _ = run(capsys, "prove", "--calculus", f"{calc}+{f}", "--sequent", sequent,
                       "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "provable"
    d = derivation_from_dict(payload["derivation"])
    assert d.rule == rules[0].name
    assert check_derivation(calculus, d)


@pytest.mark.parametrize("calc, sequent", [
    ("G3i+R_SL", "[]p => []p"),
    ("G3i+{W}", "p, q => []p"),
    ("G4i+{W}", "p, q => []p"),
], ids=["G3i-R_SL", "G3i-W", "G4i-W"])
def test_greedy_match_gives_the_formulas_to_the_context_the_premises_keep(
        capsys, tmp_path, calc, sequent):
    # R_SL keeps box G and G but not box S, and W keeps G but not H: a match
    # that gives the boxes to S, or p to H, leaves an unprovable premise
    f = tmp_path / "w.rules"
    f.write_text("rule W { premises: G => phi ; conclusion: G, H => box phi }\n")
    calc = calc.format(W=f)
    code, out, _ = run(capsys, "prove", "--calculus", calc, "--sequent", sequent,
                       "--emit", "json")
    assert code == 0
    d = derivation_from_dict(json.loads(out)["derivation"])
    assert check_derivation(_resolve_calculus(calc), d)


def test_prove_deep_nesting_is_an_input_error(capsys, tmp_path):
    # the sequent parses, but the search (prover._search) recurses once per
    # node; past the recursion limit the answer is an input error, not a
    # traceback with UNPROVABLE's exit code.  In G4ip the refuter fails the
    # first node that it refutes, one step below the root; a user rule keeps
    # the refuter off, so the search goes deep.
    text = "~" * 30000 + "p => p"
    code, out, _ = run(capsys, "prove", "--calculus", "G4ip", "--sequent", text)
    assert (code, out) == (1, "UNPROVABLE\n")
    f = tmp_path / "k.rules"
    f.write_text("rule K_user { premises: G => phi ; conclusion: P, box G => box phi }\n")
    deep = run_process("prove", "--calculus", f"G4i+{f}", "--sequent", text)
    assert deep.returncode == 3
    assert b"Traceback" not in deep.stderr
    assert deep.stderr.decode().splitlines() == ["seqprove: error: input nested too deeply"]
    assert deep.stdout == b""
    code, out, _ = run(capsys, "prove", "--calculus", "G4ip", "--sequent", "~" * 2000 + "p => p")
    assert (code, out) == (1, "UNPROVABLE\n")


@pytest.mark.parametrize("argv", [
    ["--sequent", "q & " + "~" * 25000 + "p => q"],
    ["--sequent", "q, " + "~" * 25000 + "p => q", "--emit", "json"],
])
def test_a_deep_formula_in_a_short_proof_is_proved(capsys, argv):
    # a step or two closes each: nothing that sorts, weighs or prints the deep
    # formula recurses, whatever its depth
    code, out, _ = run(capsys, "prove", "--calculus", "G4ip", *argv)
    assert code == 0
    assert out.startswith("PROVABLE" if len(argv) == 2 else "{")


@pytest.mark.parametrize("argv, text", [
    (("prove", "[\u00b2]p"), None),
    (("rules-parse",), "rule Two { premises: G => phi ; conclusion: P, box(\u00b2) G => box phi }\n"),
])
def test_non_decimal_box_index_is_an_input_error(tmp_path, argv, text):
    if text is not None:
        f = tmp_path / "sup.rules"
        f.write_text(text, encoding="utf-8")
        argv = (*argv, str(f))
    run = run_process(*argv)
    assert run.returncode == 3
    assert b"Traceback" not in run.stderr
    assert len(run.stderr.decode().splitlines()) == 1
    assert run.stdout == b""


def test_rules_parse_deep_nesting(capsys, tmp_path):
    f = tmp_path / "deep.rules"
    f.write_text("rule Deep { premises: G => phi ; conclusion: G => " + "~" * 30000 + "phi }\n")
    code, out, err = run(capsys, "rules-parse", str(f))
    assert (code, err) == (0, "")
    rules, errors = parse_rules(f.read_text())
    again, errors_again = parse_rules(out)
    assert not errors and not errors_again
    assert [r.name for r in rules] == ["Deep"]
    assert [(r.name, r.premises, r.conclusion) for r in again] == \
        [(r.name, r.premises, r.conclusion) for r in rules]


def test_prove_refuses_nonterminating_g4(capsys):
    code, _, err = run(capsys, "prove", "--calculus", "G4i+R_GL", "p")
    assert code >= 3
    assert "terminating" in err


def test_prove_force_skips_the_termination_guard(capsys):
    code, out, err = run(capsys, "prove", "--calculus", "G4i+R_GL", "--sequent", "[]p => []p")
    assert (code, out) == (3, "")
    assert "requires a terminating calculus" in err and err.endswith(
        " (use --force to override)\n")
    # forced, the search meets the rule that does not decrease the order
    code, out, err = run(capsys, "prove", "--calculus", "G4i+R_GL", "--sequent", "[]p => []p",
                         "--force")
    assert (code, out) == (3, "")
    assert err.startswith("seqprove: termination violation: rule R_GL")
    code, out, _ = run(capsys, "prove", "--calculus", "G4i+R_K4", "--sequent", "[]p => [][]p",
                       "--force", "--emit", "json")
    assert code == 0
    d = derivation_from_dict(json.loads(out)["derivation"])
    assert check_derivation(build_g4ix([builtin_modal_rules()["R_K4"]]), d)


def test_transform_rk(capsys):
    code, out, err = run(capsys, "transform", "--rules", "R_K")
    assert code == 0
    assert "rule R_K-> {" in out
    assert "P, box G, (box phi -> psi) => D" in out
    assert "# generated from R_K" in out


def test_transform_rt_warns(capsys):
    code, out, err = run(capsys, "transform", "--rules", "R_T")
    assert code == 0
    assert "R_T" in out
    assert "->" not in [line.split()[1] for line in out.splitlines()
                        if line.startswith("rule ")][-1]
    assert "not right modal" in err


def test_transform_rk_rd_one_generated(capsys):
    code, out, _ = run(capsys, "transform", "--rules", "R_K,R_D")
    assert code == 0
    generated = [line for line in out.splitlines() if line.startswith("# generated")]
    assert generated == ["# generated from R_K"]


def test_transform_output_reparses(capsys, tmp_path):
    code, out, _ = run(capsys, "transform", "--rules", "R_K,R_T")
    from seqprove.dsl import parse_rules
    rules, errors = parse_rules(out)
    assert not errors
    assert {"R_K", "R_K->", "R_T"} <= {r.name for r in rules}


def test_check_termination_positive(capsys):
    code, out, _ = run(capsys, "check-termination", "--rules", "R_K,R_D,R_T")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["R_K: TERMINATING", "R_D: TERMINATING", "R_T: TERMINATING"]


def test_check_termination_counterexample(capsys):
    code, out, _ = run(capsys, "check-termination", "--rules", "R_GL")
    assert code == 1
    assert out.startswith("R_GL: COUNTEREXAMPLE")


def test_check_termination_mixed(capsys):
    code, out, _ = run(capsys, "check-termination", "--rules", "R_K4,R_SL")
    assert code == 1
    assert out.count("COUNTEREXAMPLE") == 2


def test_check_termination_weights_file(capsys, tmp_path):
    weights = tmp_path / "w.txt"
    weights.write_text("and = 2\nor = 1\nimp = 1\nbox = 1\n")
    code, out, _ = run(capsys, "check-termination", "--rules", "R_K",
                       "--order", str(weights))
    assert code == 0 and "TERMINATING" in out


def test_decreasing_rule_beyond_the_certificate_is_unknown(capsys, tmp_path):
    # every instance of KK decreases (each box f of box G gives way to two
    # copies of the lighter f), but the certificate lets a plain G use up only
    # a box G of its own; sampling finds no counterexample, so KK is Unknown
    rules = tmp_path / "kk.rules"
    rules.write_text("rule KK { premises: G, G => phi ; conclusion: P, box G => box phi }\n")
    code, out, _ = run(capsys, "check-termination", "--rules", str(rules))
    assert (code, out) == (2, "KK: UNKNOWN\n")
    code, out, err = run(capsys, "prove", "--calculus", f"G4i+{rules}", "--sequent",
                         "[]p, []q => [](p & q)")
    assert (code, out) == (0, "PROVABLE\n")
    assert err.splitlines() == [
        "warning: termination of rule KK could not be certified",
        "warning: termination of rule KK-> could not be certified",
    ]


def test_equiv_test_small(capsys):
    code, out, _ = run(capsys, "equiv-test", "--modal", "R_K", "--count", "40",
                       "--size", "8", "--seed", "42")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["disagree"] == 0
    assert summary["count"] == 40
    assert len(lines) == 41


def test_equiv_test_empty(capsys):
    code, out, _ = run(capsys, "equiv-test", "--count", "0")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["count"] == 0


def test_equiv_test_refuses_gl(capsys, tmp_path):
    rules = tmp_path / "gl.rules"
    rules.write_text("rule R_GL { premises: G, box G, box phi => phi ; "
                     "conclusion: P, box G => box phi }\n")
    with pytest.warns(UserWarning):
        code, _, err = run(capsys, "equiv-test", "--modal", str(rules), "--count", "5")
    assert code >= 3
    assert "terminating" in err


def test_equiv_test_byte_identical(capsys):
    a = run(capsys, "equiv-test", "--modal", "R_K", "--count", "25", "--seed", "7")
    b = run(capsys, "equiv-test", "--modal", "R_K", "--count", "25", "--seed", "7")
    assert a == b


def test_rules_parse(capsys, tmp_path):
    f = tmp_path / "mine.rules"
    f.write_text("rule R_K { premises: G => phi ; conclusion: P, box G => box phi }\n")
    code, out, _ = run(capsys, "rules-parse", str(f))
    assert code == 0
    assert "# R_K: right-modal, 1 premise(s)" in out


def test_rules_parse_kinds_a_box_free_rule_by_its_principal_side(capsys, tmp_path):
    f = tmp_path / "plain.rules"
    f.write_text("rule ImpInv { premises: G, psi => D ; conclusion: G, phi -> psi => D }\n"
                 "rule AndR { premises: G => phi ; G => psi ; conclusion: G => phi & psi }\n"
                 "rule T_user { premises: G, phi => D ; conclusion: G, box phi => D }\n")
    code, out, _ = run(capsys, "rules-parse", str(f))
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("#")] == [
        "# ImpInv: left, 1 premise(s)", "# AndR: right, 2 premise(s)",
        "# T_user: other-modal, 1 premise(s)"]


def test_rules_parse_errors(capsys, tmp_path):
    f = tmp_path / "bad.rules"
    f.write_text("rule Bad { premises: G, psi => phi ; conclusion: G => phi }\n")
    code, out, err = run(capsys, "rules-parse", str(f))
    assert code == 3
    assert "psi" in err


@pytest.mark.parametrize("argv, kind", [
    (("prove", "--calculus", "G4i+{}", "p"), "dir"),
    (("equiv-test", "--count", "1", "--modal", "{}"), "dir"),
    (("check-termination", "--rules", "R_K", "--order", "{}"), "dir"),
    (("prove", "--calculus", "G4i+{}", "p"), "latin-1"),
    (("rules-parse", "{}"), "latin-1"),
    (("check-termination", "--rules", "R_K", "--order", "{}"), "latin-1"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_unreadable_input_file_is_an_input_error(capsys, tmp_path, argv, kind):
    # a directory, or a file that is not UTF-8, is an input error: exit 1
    # would read as UNPROVABLE, and a traceback is no answer at all
    path = tmp_path / kind
    if kind == "dir":
        path.mkdir()
    else:
        path.write_bytes("# caf\u00e9\nand = 2\n".encode("latin-1"))
    code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert (code, out) == (3, "")
    assert err.startswith("seqprove: error: ") and len(err.splitlines()) == 1
    assert str(path) in err


def test_unknown_calculus(capsys):
    code, _, err = run(capsys, "prove", "--calculus", "G5ip", "p")
    assert code >= 3


def test_usage_error_exit_code(capsys):
    code = main(["prove"])  # missing goal
    assert code >= 3


def test_prove_with_user_rules_file(capsys, tmp_path):
    f = tmp_path / "k.rules"
    f.write_text("rule R_K { premises: G => phi ; conclusion: P, box G => box phi }\n")
    code, out, _ = run(capsys, "prove", "--calculus", f"G4i+{f}", "([]p & []q) -> [](p & q)")
    assert code == 0 and "PROVABLE" in out
    code, _, _ = run(capsys, "prove", "--calculus", f"G3i+{f}", "[]p -> p")
    assert code == 1


def test_prove_refuses_a_second_rule_of_a_name(capsys, tmp_path):
    f = tmp_path / "land.rules"
    f.write_text("rule LAnd { premises: G, phi => D ; conclusion: G, phi & psi => D }\n")
    code, out, err = run(capsys, "prove", "--calculus", f"G4i+{f}", "--sequent", "p & q => p")
    assert (code, out) == (3, "")
    assert err == ("seqprove: error: rule LAnd: the calculus already has a rule "
                   "of this name\n")


@pytest.mark.parametrize("argv", [
    ["check-termination", "--rules", "R_GL", "--atoms", "0"],
    ["check-termination", "--rules", "R_GL", "--atoms", "9"],
    ["check-termination", "--rules", "R_GL", "--size", "0"],
    ["check-termination", "--rules", "R_GL", "--samples", "-1"],
    ["equiv-test", "--size", "0"],
    ["equiv-test", "--atoms", "0"],
    ["equiv-test", "--modal-depth", "-1"],
    ["equiv-test", "--count", "-1"],
    ["equiv-test", "--depth", "0"],
    ["equiv-test", "--nodes", "0"],
    ["prove", "--nodes", "0", "p"],
    ["prove", "--depth", "-1", "p"],
    ["prove", "--depth", "x", "p"],
], ids=" ".join)
def test_bad_numeric_option_is_a_usage_error(capsys, argv):
    # a bad value is refused by the parser, before any work: exit 1 or 2
    # would read as a verdict, and a traceback is no answer at all
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    option = next(a for a in argv if a.startswith("--") and a != "--rules")
    assert len(err.splitlines()) == 1
    assert f": error: argument {option}: must be an integer" in err


def test_numeric_options_accept_their_bounds(capsys):
    for argv in (["check-termination", "--rules", "R_K", "--atoms", "8", "--samples", "0",
                  "--size", "1"],
                 ["check-termination", "--rules", "R_K", "--atoms", "1"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == "R_K: TERMINATING\n"
    code, out, _ = run(capsys, "equiv-test", "--count", "0", "--size", "1", "--atoms", "1",
                       "--modal-depth", "0", "--depth", "1", "--nodes", "1")
    assert code == 0
    code, out, _ = run(capsys, "prove", "--calculus", "G3ip", "--depth", "1", "--nodes", "1",
                       "p -> p")
    assert code == 2 and out == "UNKNOWN (budget-exhausted)\n"


def _small_runs(rule_file):
    """Each subcommand's numeric options, and a valid argv that does little work."""
    return {
        "prove": (("--depth", "--nodes", "--seed"),
                  ["prove", "--calculus", "G3ip", "--depth", "6", "--nodes", "60", "p -> p"]),
        "transform": ((), ["transform", "--rules", "R_K"]),
        "check-termination": (("--samples", "--size", "--atoms", "--seed"),
                              ["check-termination", "--rules", "R_K", "--samples", "4"]),
        "equiv-test": (("--count", "--size", "--atoms", "--seed", "--modal-depth", "--depth",
                        "--nodes"),
                       ["equiv-test", "--count", "2", "--size", "3", "--depth", "10",
                        "--nodes", "200"]),
        "rules-parse": ((), ["rules-parse", rule_file]),
    }


# where a string goes: the subcommand, and the option before it (None: the
# last positional argument)
_STRING_SLOTS = (("prove", None), ("prove", "--calculus"), ("transform", "--rules"),
                 ("check-termination", "--rules"), ("check-termination", "--order"),
                 ("equiv-test", "--modal"), ("rules-parse", None))


def _with(argv, option, value):
    """``argv`` with ``option`` set to ``value``, or its last argument
    replaced if ``option`` is None."""
    if option is None:
        return argv[:-1] + [value]
    if option in argv:
        i = argv.index(option)
        return argv[:i + 1] + [value] + argv[i + 2:]
    return argv[:-1] + [option, value, argv[-1]] if argv[0] == "prove" else argv + [option, value]


def test_every_cli_input_keeps_the_exit_code_contract(capsys, tmp_path):
    # exit 0-3 and no traceback for every subcommand, every numeric option at
    # -1, 0 and 1, bad strings in every string slot, and seeded mixtures
    good = tmp_path / "good.rules"
    good.write_text("rule R_K { premises: G => phi ; conclusion: P, box G => box phi }\n")
    (tmp_path / "found.rules").write_text(
        "rule A { premises: G => (phi\nrule B { premises: G => phi ; conclusion: G => box phi }\n")
    (tmp_path / "latin-1.rules").write_bytes("# caf\u00e9\n".encode("latin-1"))
    (tmp_path / "dir").mkdir()
    bad = ["", "R_Nope", "=> p => & (", "[\u00b2]p", "box(\u00b2) G"]
    bad += [str(tmp_path / name) for name in ("missing.rules", "dir", "latin-1.rules",
                                                "found.rules")]
    runs = _small_runs(str(good))
    cases = []
    for numeric, argv in runs.values():
        cases.append(argv)
        cases += [_with(argv, option, value) for option in numeric for value in ("-1", "0", "1")]
    for command, option in _STRING_SLOTS:
        cases += [_with(runs[command][1], option, value) for value in bad]
        if option == "--calculus":
            cases += [_with(runs[command][1], option, "G4i+" + value) for value in bad]
    rng = random.Random(16)
    for _ in range(40):
        command = rng.choice(sorted(runs))
        numeric, argv = runs[command]
        for option in rng.sample(numeric, min(2, len(numeric))):
            argv = _with(argv, option, rng.choice(("-1", "0", "1")))
        slot = rng.choice([o for c, o in _STRING_SLOTS if c == command])
        cases.append(_with(argv, slot, rng.choice(bad + [str(good)])))
    # nested past the recursion limit: one deep formula where the refuter is
    # off, and two distinct ones, whose deep sort keys the matcher compares
    deep = "~" * 30000
    too_deep = [["prove", "--calculus", calc, "--sequent", text]
                for calc, text in ((f"G4i+{good}", f"{deep}p => p"),
                                   ("G4ip", f"{deep}p, {deep}q => p"))]
    # the same single formula in G4ip: refuted one step below the root
    refuted = ["prove", "--calculus", "G4ip", "--sequent", f"{deep}p => p"]
    for argv in cases + too_deep + [refuted]:
        try:
            code, out, err = run(capsys, *argv)
        except BaseException as e:  # name the input that raised
            pytest.fail(f"{argv} raised {e!r}")
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if argv in too_deep:
            assert (code, err) == (3, "seqprove: error: input nested too deeply\n")
        if argv == refuted:
            assert (code, out, err) == (1, "UNPROVABLE\n", "")
        if code in (1, 2):  # a negative or indefinite verdict is printed
            assert out, argv
