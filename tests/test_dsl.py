import hashlib
import random

from seqprove.calculus import (
    AXIOM, OTHER_MODAL, AVar, BoxedCtx, CtxVar, FVar, Pattern, RuleSchema, SuccVar,
    builtin_modal_rules, g3ip, g4ip, is_right_modal, transform_right_modal,
)
from seqprove.dsl import parse_rules, pattern_text, print_rule, print_rules
from seqprove.syntax import And, Bot, Imp, Modal, Or

B = builtin_modal_rules()


def same_schema(a, b):
    return (a.name, a.premises, a.conclusion) == (b.name, b.premises, b.conclusion)


def test_parse_r_k_matches_builtin():
    rules, errors = parse_rules(
        "rule R_K { premises: G => phi ; conclusion: P, box G => box phi }")
    assert not errors
    assert len(rules) == 1
    assert same_schema(rules[0], B["R_K"])
    assert rules[0].kind == "right-modal"
    assert rules[0].provenance == "user"


def test_parse_empty_file():
    assert parse_rules("") == ([], [])
    assert parse_rules("# just a comment\n") == ([], [])


def test_unbound_premise_metavariable_rejected():
    rules, errors = parse_rules(
        "rule Bad { premises: G, psi => phi ; conclusion: G => phi }")
    assert rules == []
    assert len(errors) == 1
    assert "psi" in errors[0].message
    assert errors[0].line == 1


def test_sort_clash_rejected():
    rules, errors = parse_rules(
        "rule Clash { premises: G => D ; conclusion: G, D => D }")
    assert rules == []
    assert any("D" in e.message for e in errors)


def test_error_recovery_keeps_valid_rules():
    text = """
rule Broken { premises: G => ; conclusion: }
rule R_T { premises: G, phi => D ; conclusion: G, box phi => D }
"""
    rules, errors = parse_rules(text)
    assert [r.name for r in rules] == ["R_T"]
    assert errors and errors[0].line == 2
    assert same_schema(rules[0], B["R_T"])


def test_axiom_and_empty_succedent():
    rules, errors = parse_rules(
        "rule MyAx { premises: none ; conclusion: G, p => p }\n"
        "rule Drop { premises: G, phi => _ ; conclusion: G, box phi => D }")
    assert not errors
    assert rules[0].kind == "axiom"
    assert rules[1].premises[0].succedent is None


def test_box_indices():
    rules, errors = parse_rules(
        "rule Two { premises: G => phi ; conclusion: P, box(2) G => box(2) phi }")
    assert not errors
    text = print_rule(rules[0])
    assert "box(2) G" in text and "box(2) phi" in text
    back, errs = parse_rules(text)
    assert not errs and same_schema(back[0], rules[0])


def test_box_index_is_decimal_digits():
    rules, errors = parse_rules(
        "rule Two { premises: G => phi ; conclusion: P, box(\u0661) G => box(1) phi }")
    assert not errors and "box(1) G" in print_rule(rules[0])
    rules, errors = parse_rules(
        "rule Two { premises: G => phi ;\n conclusion: P, box(\u00b2) G => box phi }")
    assert rules == []
    assert [(e.line, e.message) for e in errors] == [(2, "unexpected character '\u00b2'")]


def test_deep_template_round_trips():
    rules, errors = parse_rules(
        "rule Deep { premises: G => phi ; conclusion: G => " + "box " * 30000 + "phi }")
    assert not errors
    back, errors = parse_rules(print_rule(rules[0]))
    assert not errors and same_schema(back[0], rules[0])


def test_all_builtins_round_trip():
    rules = list(g3ip().rules) + list(g4ip().rules) + list(B.values())
    rules += [transform_right_modal(r) for r in B.values() if is_right_modal(r)]
    text = print_rules(rules)
    back, errors = parse_rules(text)
    assert not errors
    assert len(back) == len(rules)
    for orig, parsed in zip(rules, back):
        assert same_schema(orig, parsed), orig.name


def test_generated_rule_name_round_trips():
    gen = transform_right_modal(B["R_K"])
    text = print_rule(gen)
    assert text.startswith("rule R_K->")
    assert "(box phi -> psi) => D" in text
    back, errors = parse_rules(text)
    assert not errors and back[0].name == "R_K->"


def test_pattern_text_shapes():
    assert pattern_text(B["R_K"].conclusion) == "P, box G => box phi"
    assert pattern_text(B["R_D"].premises[0]) == "G, phi => _"
    assert pattern_text(B["R_SL"].conclusion) == "box S, P, box G => box phi"


def test_context_var_in_formula_position_rejected():
    rules, errors = parse_rules(
        "rule Bad2 { premises: G => phi & P ; conclusion: G, P => phi & phi }")
    assert rules == []
    assert errors


def _random_template(rng, size):
    if size <= 1:
        return rng.choice([Bot(), FVar("phi"), FVar("psi"), AVar("p"), AVar("q")])
    op = rng.choice(["and", "or", "imp", "box", "neg"])
    if op == "box":
        return Modal(rng.choice([0, 0, 1, 2]), _random_template(rng, size - 1))
    if op == "neg":
        return Imp(_random_template(rng, size - 1), Bot())
    k = rng.randint(1, size - 1)
    left, right = _random_template(rng, k), _random_template(rng, size - k)
    return {"and": And, "or": Or, "imp": Imp}[op](left, right)


def _random_pattern(rng):
    items = [rng.choice([CtxVar("G"), CtxVar("P"), BoxedCtx("G", rng.choice([0, 1])),
                         _random_template(rng, rng.randint(1, 5))])
             for _ in range(rng.randint(0, 3))]
    succ = rng.choice([None, SuccVar("D"), _random_template(rng, rng.randint(1, 5))])
    return Pattern(tuple(items), succ)


def _parts(t):
    """``t`` and its immediate subtemplates."""
    if isinstance(t, (And, Or, Imp)):
        return [t, t.left, t.right]
    return [t, t.body] if isinstance(t, Modal) else [t]


def _random_rule(rng, k):
    """A random rule whose premises mostly reuse parts of its conclusion, so
    that many pass validation."""
    concl = _random_pattern(rng)
    parts = [p for it in concl.items for p in (_parts(it) if isinstance(it, (And, Or, Imp, Modal))
                                                  else [it])]
    succs = [None] + (_parts(concl.succedent) if concl.succedent is not None else [])
    premises = []
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.2:
            premises.append(_random_pattern(rng))
        else:
            items = rng.sample(parts, rng.randint(0, len(parts)))
            premises.append(Pattern(tuple(items), rng.choice(succs)))
    kind = OTHER_MODAL if premises else AXIOM
    return RuleSchema(f"R{k}", tuple(premises), concl, kind, provenance="user")


_RULE_TOKENS = ("phi", "psi", "p", "G", "P", "D", "_", "box", "box(1)", "(2)", "(", ")",
                "~", "&", "|", "->", "=>", ",", ";", ":", "{", "}", "rule", "premises:",
                "conclusion:", "none", "false", "# note", "\n", " ", "7", "\u0661", "[",
                "\u00e9")


def _rule_texts(seed, n):
    """Seeded rule files: builtin and random template rules, printed, some
    with a token inserted, deleted or swapped in."""
    rng = random.Random(seed)
    builtins = list(g4ip().rules) + list(B.values())
    builtins += [transform_right_modal(r) for r in B.values() if is_right_modal(r)]
    for k in range(n):
        rules = [rng.choice(builtins) if rng.random() < 0.3 else _random_rule(rng, k)
                 for _ in range(rng.randint(1, 3))]
        text = print_rules(rules)
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            i = rng.randint(0, len(text))
            j = min(len(text), i + rng.randint(0, 3))
            text = text[:i] + rng.choice(("",) + _RULE_TOKENS) + text[j:]
        yield text


def _rules_record(text):
    rules, errors = parse_rules(text)
    return text, print_rules(rules), [(e.line, e.rule, e.message) for e in errors]


# sha256 of the records of _rule_texts(12, 3_000), recorded when every
# 'rule' keyword started a block of its own; before, an error that read the
# next 'rule' keyword dropped that rule (32 records differed)
RULES_FINGERPRINT = "49c7bf8a43bfca03091a01d436a21bca5acae3b98e7a09844bdfdc2ad913c631"


def test_parse_rules_is_pinned():
    records = [_rules_record(text) for text in _rule_texts(12, 3_000)]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == RULES_FINGERPRINT


def test_an_error_does_not_hide_the_next_rule():
    # the unclosed parenthesis is reported where the next 'rule' keyword
    # stands, and that rule is still parsed
    rules, errors = parse_rules("rule A { premises: G => (phi\n"
                                "rule B { premises: G => phi ; conclusion: G => box phi }\n")
    assert [r.name for r in rules] == ["B"]
    assert [(e.line, e.rule, e.message) for e in errors] == \
        [(2, None, "expected RPAR, found rule")]


def test_stray_tokens_outside_blocks_are_reported_once_per_run():
    rules, errors = parse_rules("x rule A { premises: none ; conclusion: G, p => p } y z\n"
                                "rule B { premises: none ; conclusion: G, p => p } }")
    assert [r.name for r in rules] == ["A", "B"]
    assert [(e.line, e.message) for e in errors] == [
        (1, "expected 'rule', found x"), (1, "expected 'rule', found y"),
        (2, "expected 'rule', found RBRACE")]
