import functools
import hashlib
import random
from pathlib import Path

import pytest

from seqprove.syntax import (
    And, Atom, FMultiset, Imp, Modal, Or, Sequent, parse_formula, parse_sequent,
    print_formula, print_sequent,
)
from seqprove.calculus import (
    AVar, AXIOM, BoxedCtx, CtxVar, EXHAUSTIVE, FVar, GREEDY, InstantiationError,
    InvalidRulesError, Pattern, RuleSchema, build_g3ix, build_g4ix,
    builtin_modal_rules, format_instantiation, g3ip, g4ip, instantiate_pattern,
    instantiate_premises, is_nonflat, is_right_modal, match_conclusion, offered,
    schema_metavars,
    SuccVar, transform_right_modal, NonflatWarning,
)
from seqprove import calculus
from seqprove.dsl import parse_rules, print_rule, template_text

p, q, r = Atom("p"), Atom("q"), Atom("r")
B = builtin_modal_rules()


def test_g3ip_inventory():
    c = g3ip()
    assert len(c.rules) == 9
    names = {ru.name for ru in c.rules}
    assert names == {"Ax", "LBot", "RAnd", "LAnd", "ROr0", "ROr1", "LOr", "RImp", "LImp"}
    assert "LpImp" not in names
    assert all(len(ru.premises) <= 2 for ru in c.rules)
    assert c.style == "G3"


def test_g4ip_inventory():
    c = g4ip()
    assert len(c.rules) == 12
    names = {ru.name for ru in c.rules}
    assert names == {"Ax", "LBot", "RAnd", "LAnd", "ROr0", "ROr1", "LOr", "RImp",
                     "LpImp", "LAndImp", "LOrImp", "LImpImp"}
    assert c.style == "G4"


def test_g4ip_shapes():
    c = g4ip()
    lpimp = c.rule("LpImp")
    concl = instantiate_pattern(lpimp.conclusion,
                                {"G": FMultiset(), "p": p, "phi": q, "D": r})
    assert concl == parse_sequent("p, p -> q => r")
    limpimp = c.rule("LImpImp")
    prems = instantiate_premises(limpimp, {"phi": p, "psi": q, "gamma": r,
                                           "G": FMultiset(), "D": Atom("s")})
    assert prems == [parse_sequent("q -> r => p -> q"), parse_sequent("r => s")]
    landimp = c.rule("LAndImp")
    prems = instantiate_premises(landimp, {"phi": p, "psi": q, "gamma": r,
                                           "G": FMultiset(), "D": None})
    assert prems == [parse_sequent("p -> (q -> r) =>")]


def test_builtin_modal_shapes():
    rk = B["R_K"]
    assert [print_sequent(s) for s in instantiate_premises(
        rk, {"G": FMultiset([p, q]), "P": FMultiset(), "phi": And(p, q)})] == ["p, q => p & q"]
    rd = B["R_D"]
    assert rd.premises[0].succedent is None
    rsl = B["R_SL"]
    assert {type(it) for it in rsl.conclusion.items} == {BoxedCtx, CtxVar}


def test_modal_kinds():
    assert B["R_K"].kind == "right-modal"
    assert B["R_D"].kind == "other-modal"
    assert B["R_T"].kind == "other-modal"
    assert is_right_modal(B["R_K"])
    assert is_right_modal(B["R_GL"])
    assert is_right_modal(B["R_SL"])
    assert not is_right_modal(B["R_T"])
    assert not is_right_modal(B["R_D"])


def test_is_nonflat():
    assert is_nonflat(B["R_K"])
    assert not is_nonflat(g3ip().rule("LBot"))  # axiom: no premises
    flat = RuleSchema("Flat", (Pattern((CtxVar("G"),), AVar("q")),),
                      Pattern((CtxVar("G"), AVar("p")), AVar("q")), "other-modal")
    assert not is_nonflat(flat)


def test_transform_right_modal_rx():
    gen = transform_right_modal(B["R_X"])
    assert gen.name == "R_X->"
    assert gen.provenance == "generated-from:R_X"
    inst = {"G": FMultiset([p]), "P": FMultiset([r]), "phi": p, "psi": q, "D": None}
    prems = instantiate_premises(gen, inst)
    assert prems == [parse_sequent("[]p => p"), parse_sequent("r, []p, q =>")]
    concl = instantiate_pattern(gen.conclusion, inst)
    assert concl == parse_sequent("r, []p, []p -> q =>")


def test_transform_right_modal_rk():
    gen = transform_right_modal(B["R_K"])
    inst = {"G": FMultiset([p]), "P": FMultiset(), "phi": p, "psi": q, "D": r}
    assert instantiate_premises(gen, inst) == [parse_sequent("p => p"),
                                               parse_sequent("[]p, q => r")]
    assert instantiate_pattern(gen.conclusion, inst) == parse_sequent("[]p, []p -> q => r")
    # generated rules stay nonflat: the conclusion contains box phi -> psi
    assert is_nonflat(gen)


def test_transform_rejects_non_right_modal():
    with pytest.raises(ValueError):
        transform_right_modal(B["R_T"])


def test_build_g3ix_g4ix():
    assert build_g3ix([]).rules == g3ip().rules
    c4k = build_g4ix([B["R_K"]])
    names = {ru.name for ru in c4k.rules}
    assert {"R_K", "R_K->"} <= names
    assert {ru.name for ru in g4ip().rules} <= names
    c4t = build_g4ix([B["R_T"]])
    assert "R_T" in {ru.name for ru in c4t.rules}
    assert not any(ru.provenance.startswith("generated") for ru in c4t.rules)
    assert c4k.name == "G4i+R_K"


def test_g3ix_g4ix_share_exactly_the_axioms():
    modal = [B["R_K"], B["R_D"]]
    g3 = build_g3ix(modal)
    g4 = build_g4ix(modal)
    shared = {(ru.premises, ru.conclusion) for ru in g3.rules} & \
        {(ru.premises, ru.conclusion) for ru in g4.rules}
    shared_names = {ru.name for ru in g3.rules if (ru.premises, ru.conclusion) in shared}
    common = {ru.name for ru in g3.rules} & {ru.name for ru in g4.rules}
    axiom_names = {"Ax", "LBot"}
    # beyond the shared base rules, the axioms are exactly the common axioms
    assert axiom_names <= shared_names
    assert {n for n in common if g3.rule(n).kind == AXIOM} == axiom_names


def test_build_warns_on_flat_rule():
    flat = RuleSchema("Flat", (Pattern((CtxVar("G"),), AVar("p")),),
                      Pattern((CtxVar("G"), AVar("p")), AVar("p")), "other-modal")
    with pytest.warns(NonflatWarning):
        build_g3ix([flat])


def test_build_rejects_malformed():
    bad = RuleSchema("Bad", (Pattern((CtxVar("G"), FVar("phi")), None),),
                     Pattern((CtxVar("G"),), None), "other-modal")
    with pytest.raises(InvalidRulesError):
        build_g4ix([bad])


def test_build_rejects_a_second_rule_of_a_name():
    # the search takes an invertible rule by name: a second LAnd would
    # never be tried
    (land,), _ = parse_rules("rule LAnd { premises: G, phi => D ; conclusion: G, phi & psi => D }")
    for build in (build_g3ix, build_g4ix):
        with pytest.raises(InvalidRulesError, match="rule LAnd: the calculus already has"):
            build([land])
        with pytest.raises(InvalidRulesError, match="rule R_K: "):
            build([B["R_K"], B["R_K"]])
    (arrow,), _ = parse_rules("rule R_K-> { premises: G => phi ; conclusion: G, box phi => phi }")
    with pytest.raises(InvalidRulesError, match="rule R_K->: "):
        build_g4ix([B["R_K"], arrow])  # clashes with the rule generated from R_K
    assert build_g3ix([B["R_K"], arrow]).rule("R_K->") is arrow


def test_match_conclusion_examples():
    rk = B["R_K"]
    insts = match_conclusion(rk, parse_sequent("[]p, []q, r => [](p & q)"), GREEDY)
    assert len(insts) == 1
    assert insts[0]["G"] == FMultiset([p, q])
    assert insts[0]["P"] == FMultiset([r])
    assert insts[0]["phi"] == And(p, q)
    assert match_conclusion(rk, parse_sequent("p => q")) == []
    lp = g4ip().rule("LpImp")
    insts = match_conclusion(lp, parse_sequent("p, p -> q => r"))
    assert len(insts) == 1
    assert insts[0]["p"] == p and insts[0]["phi"] == q and insts[0]["G"] == FMultiset()


def _undominated(rule, s):
    """The exhaustive instances of ``rule``'s conclusion ``s`` that no greedy
    instance dominates: none gives the same premise succedents and premise
    antecedents that hold the instance's.  Every greedy instance must also
    be an exhaustive one."""
    def key(inst):
        return tuple(sorted((k, repr(v)) for k, v in inst.items()))

    def premises(inst):
        return [instantiate_pattern(pat, inst) for pat in rule.premises]

    greedy = match_conclusion(rule, s, GREEDY)
    exhaustive = match_conclusion(rule, s, EXHAUSTIVE)
    assert {key(i) for i in greedy} <= {key(i) for i in exhaustive}, rule.name
    tops = [premises(i) for i in greedy]
    return [inst for inst in exhaustive
            if not any(all(g.succedent == e.succedent and e.antecedent.issubset(g.antecedent)
                           for g, e in zip(top, premises(inst))) for top in tops)]


def test_match_greedy_subset_of_exhaustive():
    # greedy matching loses no derivation: by height-preserving weakening, a
    # greedy instance's premises are provable whenever an exhaustive
    # instance's are that it dominates
    rules, sequents = _matcher_stream()
    assert len(rules) == 35
    for rule in rules:
        for s in sequents:
            assert not _undominated(rule, s), (rule.name, print_sequent(s))
    # random valid rules, over boxes of every index the rules use
    from test_dsl import _random_rule
    pool = [parse_formula(t) for t in (
        "false", "p", "q", "p & q", "p -> q", "[]p", "[]q", "[][]p", "[1]p", "[1][]p",
        "[2]p", "[2][1]q", "[](p -> q)", "[1](p | q)", "~p", "[]p -> q")]
    rng = random.Random(5)
    sequents = [Sequent(FMultiset(rng.choice(pool) for _ in range(rng.randint(0, 4))),
                        rng.choice(pool) if rng.random() < 0.8 else None) for _ in range(60)]
    valid = 0
    for k in range(5_000):
        rule = _random_rule(rng, k)
        if calculus.schema_problems(rule):
            continue
        valid += 1
        for s in sequents:
            assert not _undominated(rule, s), (print_rule(rule), print_sequent(s))
        if valid == 300:
            break
    assert valid == 300


def test_rules_compile_the_share_each_context_takes():
    G, P, S, H = CtxVar("G"), CtxVar("P"), BoxedCtx("S"), BoxedCtx("H")
    all_, none, every = calculus.ALL, calculus.NONE, calculus.EVERY
    assert B["R_K"].contexts == ((BoxedCtx("G"), all_), (P, all_))
    # R_SL's premise keeps box G and G, but nothing of box S
    assert B["R_SL"].contexts == ((S, none), (BoxedCtx("G"), all_), (P, all_))
    rules = {ru.name: ru for ru in REPEATED_RULES}
    assert rules["TP"].contexts == ((P, none), (G, all_))  # G, phi => D keeps G only
    assert rules["KG"].contexts == ((BoxedCtx("G"), every), (G, every))  # G, box G
    # neither G nor box H keeps every form of a box the other holds: box H
    # takes every share, first
    (split,), errors = parse_rules(
        "rule Split { premises: G => phi ; box H => phi ; conclusion: G, box H => box phi }")
    assert not errors
    assert split.contexts == ((H, every), (G, all_))


def test_forced_bindings_filter_the_exhaustive_match():
    # binding any metavariables in advance leaves exactly the instances that
    # agree with them, in the same order
    rng = random.Random(29)
    pool = [p, q, Modal(0, p), Modal(0, q), Modal(0, Modal(0, p)), Imp(Modal(0, p), q),
            And(p, q), Imp(p, q), Imp(Imp(p, q), r)]
    rules = list(g4ip().rules) + list(B.values()) + REPEATED_RULES + [
        transform_right_modal(B["R_K"])]
    checked = 0
    for _ in range(1200):
        ante = FMultiset(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        succ = rng.choice(pool) if rng.random() < 0.85 else None
        s = Sequent(ante, succ)
        rule = rng.choice(rules)
        every = match_conclusion(rule, s, EXHAUSTIVE)
        assert match_conclusion(rule, s, EXHAUSTIVE, {}) == every
        for inst in rng.sample(every, min(3, len(every))):
            names = sorted(inst)
            forced = {n: inst[n] for n in rng.sample(names, rng.randint(1, len(names)))}
            if rng.random() < 0.3:  # one binding from another instance
                other = rng.choice(every)
                n = rng.choice(names)
                forced[n] = other[n]
            agree = [i for i in every if all(i[n] == v for n, v in forced.items())]
            assert match_conclusion(rule, s, EXHAUSTIVE, forced) == agree
            checked += 1
    assert checked > 300
    lbot = g4ip().rule("LBot")
    s = parse_sequent("false => p")
    assert match_conclusion(lbot, s, EXHAUSTIVE, {"D": q}) == []
    assert match_conclusion(lbot, s, EXHAUSTIVE, {"D": p}) == match_conclusion(lbot, s)


def test_rules_compile_the_bindings_their_premises_pin():
    rules = {ru.name: ru for ru in build_g4ix([B["R_K"], B["R_D"], B["R_K4"], B["R_GL"],
                                                B["R_SL"], B["R_X"]]).rules}
    g = (0, "G", "context", True, None, (), None)  # G => _ pins G
    assert rules["R_K"].forced == ((0, "phi", "formula"), g)
    assert rules["R_K->"].forced == ((0, "phi", "formula"), (1, "D", "succedent"), g)
    # G takes the rest of the conclusion: an exhaustive match does not enumerate it
    assert rules["RAnd"].forced == ((0, "phi", "formula"), (1, "psi", "formula"))
    assert rules["LImpImp"].forced == ((1, "D", "succedent"),)  # gamma, G => D
    assert rules["R_D"].forced == ((0, "G", "context", True, None, (), "phi"),)  # G, phi =>
    assert rules["R_K4"].forced == ((0, "phi", "formula"), (0, "G", "context", True, 0, (), None))
    assert rules["R_GL"].forced == ((0, "phi", "formula"),
                                    (0, "G", "context", True, 0, (Modal(0, FVar("phi")),), None))
    assert rules["R_X"].forced == ((0, "phi", "formula"), (0, "G", "context", False, 0, (), None))
    assert rules["R_SL"].forced == ((0, "phi", "formula"),)  # P, box G, G, box phi => phi
    assert rules["Ax"].forced == ()
    # a name the conclusion uses with another sort is not pinned; P, which
    # the premise keeps, takes the rest, so nothing else is
    odd = RuleSchema("Odd", (Pattern((CtxVar("P"),), SuccVar("G")),),
                     Pattern((CtxVar("P"), CtxVar("G")), q), "left")
    assert odd.forced == ()


def test_every_fitting_instance_agrees_with_a_forced_binding():
    # the pins only filter: an instance's own premises force bindings that
    # it agrees with, including G, box G peeled off chains of boxes
    rng = random.Random(31)
    pool = [p, q, Modal(0, p), Modal(0, q), Modal(0, Modal(0, p)),
            Modal(0, Modal(0, Modal(0, p))), Modal(1, p), Modal(1, Modal(0, p)),
            Imp(Modal(0, p), q), And(p, q)]
    rules = build_g4ix(list(B.values()) + REPEATED_RULES).rules
    checked = 0
    for _ in range(300):
        ante = FMultiset(rng.choice(pool) for _ in range(rng.randint(0, 5)))
        s = Sequent(ante, rng.choice(pool) if rng.random() < 0.85 else None)
        for rule in rules:
            for inst in match_conclusion(rule, s, EXHAUSTIVE):
                found = calculus.forced_bindings(rule, instantiate_premises(rule, inst))
                assert any(all(inst[n] == v for n, v in f.items()) for f in found), rule.name
                checked += bool(rule.forced)
    assert checked > 1000


# rules that name a context twice in their conclusion, or have two plain
# contexts: only these reach the matcher's branches for an already bound
# context and for a plain context that is not the last
REPEATED_RULES, _errors = parse_rules("""
rule KG { premises: G => phi ; conclusion: G, box G => box phi }
rule DD { premises: G, phi => D ; conclusion: box G, box G, box phi => D }
rule TP { premises: G, phi => D ; conclusion: G, P, box phi => D }
""")
assert not _errors


def test_match_reproduces_sequent():
    rng = random.Random(23)
    pool = [p, q, Modal(0, p), Imp(Modal(0, q), p), And(p, q), Imp(p, q)]
    rules = list(g4ip().rules) + list(B.values())
    for _ in range(250):
        ante = FMultiset(rng.choice(pool) for _ in range(rng.randint(0, 3)))
        succ = rng.choice(pool) if rng.random() < 0.85 else None
        s = type(parse_sequent("=>"))(ante, succ)
        rule = rng.choice(rules)
        for inst in match_conclusion(rule, s, EXHAUSTIVE):
            assert instantiate_pattern(rule.conclusion, inst) == s
    # the matcher is exact for every builtin, generated and DSL rule in both
    # modes: each instance gives back s, and the instances' _inst_keys strictly
    # increase, so the list is in order and holds no instance twice
    pool += [Modal(0, Modal(0, p)), Modal(1, p), Modal(1, Modal(0, q)), Imp(Modal(1, p), q)]
    rules = build_g4ix(list(B.values()) + DSL_RULES + REPEATED_RULES).rules + (g3ip().rule("LImp"),)
    assert {"R_K->", "R_SL->", "K1->", "KG->"} <= {ru.name for ru in rules}
    # seeded sequents rarely repeat the boxes KG, DD and K1 need; these do
    sequents = [parse_sequent(text) for text in (
        "[]p, []p, []q =>", "[]p, []p, [][]p, [][]p, []q => q", "p, []p, q, []q => []r",
        "[]p, [][]p => []r", "[1]p, [1]p, [1]q, [1][]q, [1]p -> q => [1]p")]
    for _ in range(300):
        ante = FMultiset(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        sequents.append(Sequent(ante, rng.choice(pool) if rng.random() < 0.85 else None))
    hits: dict = {}
    for s in sequents:
        for rule in rules:
            for mode in (GREEDY, EXHAUSTIVE):
                insts = match_conclusion(rule, s, mode)
                assert all(instantiate_pattern(rule.conclusion, i) == s for i in insts)
                keys = [calculus._inst_key(i) for i in insts]
                assert keys == sorted(set(keys)), (rule.name, mode, print_sequent(s))
                hits[rule.name, mode] = hits.get((rule.name, mode), 0) + len(insts)
    for name in ("KG", "DD", "TP", "K1", "K1->", "M1"):
        assert hits[name, EXHAUSTIVE] >= hits[name, GREEDY] > 0, name


def test_one_match_needs_no_ordering_key(monkeypatch):
    def no_key(inst):
        raise AssertionError("a single instance was given an ordering key")
    monkeypatch.setattr(calculus, "_inst_key", no_key)
    insts = match_conclusion(g4ip().rule("LpImp"), parse_sequent("p, p -> q => r"))
    assert insts == [{"G": FMultiset(), "p": p, "phi": q, "D": r}]


def test_instantiate_unbound_raises():
    with pytest.raises(InstantiationError):
        instantiate_premises(B["R_K"], {"phi": p})


def test_schema_metavars_sorts():
    sorts = schema_metavars(B["R_D"])
    assert sorts == {"G": "context", "phi": "formula", "P": "context", "D": "succedent"}
    assert schema_metavars(g4ip().rule("LpImp"))["p"] == "atom"


def test_succvar_binds_empty_succedent():
    rd = B["R_D"]
    insts = match_conclusion(rd, parse_sequent("[]false =>"))
    assert len(insts) == 1
    assert insts[0]["D"] is None
    prems = instantiate_premises(rd, insts[0])
    assert prems == [parse_sequent("false =>")]


def test_generated_rules_deduplicated():
    twin = RuleSchema("R_K2", B["R_K"].premises, B["R_K"].conclusion, "right-modal")
    (dsl_twin,), _ = parse_rules("rule K2 { premises: G => phi ; conclusion: P, box G => box phi }")
    for t in (twin, dsl_twin):
        c4 = build_g4ix([B["R_K"], t])
        generated = [ru for ru in c4.rules if ru.provenance.startswith("generated")]
        assert len(generated) == 1  # structurally equal transforms collapse


# box(1) rules written in the DSL: a shape is a class and records no box
# index, so these are tried wherever a box is offered and the matcher refuses
# the index; K1 makes build_g4ix generate K1->, which concludes box(1) phi -> psi
DSL_RULES, _errors = parse_rules("""
rule M1 { premises: G, phi, psi => p ; conclusion: G, box(1) phi, box(1) chi -> psi => p }
rule K1 { premises: G => phi ; conclusion: P, box(1) G => box(1) phi }
""")
assert not _errors


def test_plan_skips_only_rules_that_cannot_match():
    # a pool with every principal class: falsum, atoms, &, |, ->, and boxes of
    # index 0 and 1; implications have each class of left side, so the search
    # also tries rules that then do not match
    pool = [parse_formula(t) for t in (
        "false", "p", "q", "p & q", "p | q", "p -> q", "false -> q", "(p & q) -> r",
        "(p | q) -> r", "(p -> q) -> r", "[]p -> q", "[1]p -> q", "[]p", "[1]q",
        "[](p -> q)", "[1](p & q)", "[1]p -> p")]
    modal = list(B.values()) + DSL_RULES
    calculi = [build_g3ix(modal), build_g4ix(modal)]
    assert {"M1", "K1", "K1->"} <= {ru.name for ru in calculi[1].rules}
    for calc in calculi:
        axioms, safe, branching = calc.plan
        assert sorted(map(id, axioms + safe + branching)) == sorted(map(id, calc.rules))
        # order kept: axioms and branching rules in calculus order, the
        # invertible rules in commit order
        assert [ru for ru in calc.rules if ru in axioms] == list(axioms)
        assert [ru for ru in calc.rules if ru in branching] == list(branching)
        assert [ru.name for ru in safe] == [
            n for n in calculus._SAFE_ORDER if calc.rule(n) is not None]
    rng = random.Random(29)
    skipped = kept_and_matched = 0
    for _ in range(300):
        ante = FMultiset(rng.choice(pool) for _ in range(rng.randint(0, 3)))
        s = Sequent(ante, rng.choice(pool) if rng.random() < 0.85 else None)
        shapes = offered(s)
        for calc in calculi:
            for rule in calc.rules:
                if rule.shapes <= shapes:
                    kept_and_matched += bool(match_conclusion(rule, s, GREEDY))
                    continue
                skipped += 1
                assert match_conclusion(rule, s, GREEDY) == [], (rule.name, print_sequent(s))
                assert match_conclusion(rule, s, EXHAUSTIVE) == [], (rule.name, print_sequent(s))
    assert skipped > 1000 and kept_and_matched > 300


def test_compiled_rule_data_leaves_schema_identity_alone():
    rules = list(build_g4ix(list(B.values()) + DSL_RULES).rules) + list(g3ip().rules)
    for rule in rules:
        fields = (rule.name, rule.premises, rule.conclusion, rule.kind, rule.provenance)
        again = RuleSchema(*fields)
        assert again == rule and hash(again) == hash(rule) == hash(fields)
        assert repr(rule) == ("RuleSchema(name=%r, premises=%r, conclusion=%r, kind=%r, "
                              "provenance=%r)" % fields)
        assert rule.metavars == schema_metavars(rule)


# --- compiled match stages ------------------------------------------------------

with open(Path(__file__).resolve().parents[1] / "bench" / "data" / "kt.rules",
          encoding="utf-8") as _fh:
    KT_RULES, _errors = parse_rules(_fh.read())
assert not _errors


@functools.cache
def _matcher_stream():
    """Every builtin, generated, DSL, repeated-context and kt.rules rule, with
    seeded sequents over formulas of every class and every class of
    implication left side, plus sequents that repeat the boxes KG, DD and K1
    need."""
    modal = list(B.values()) + DSL_RULES + REPEATED_RULES + KT_RULES
    rules = (g4ip().rules + (g3ip().rule("LImp"),) + tuple(modal)
             + tuple(transform_right_modal(ru) for ru in modal if is_right_modal(ru)))
    pool = [parse_formula(t) for t in (
        "false", "p", "q", "p & q", "p | q", "p -> q", "q -> p", "false -> q",
        "(p & q) -> r", "(p | q) -> r", "(p -> q) -> r", "[]p -> q", "[1]p -> q",
        "[1]q -> p", "[]p", "[]q", "[][]p", "[1]p", "[1][]q", "[](p -> q)", "[1](p & q)")]
    sequents = [parse_sequent(text) for text in (
        "[]p, []p, []q =>", "[]p, []p, [][]p, [][]p, []q => q", "p, []p, q, []q => []r",
        "[]p, [][]p => []r", "[1]p, [1]p, [1]q, [1][]q, [1]p -> q => [1]p",
        "p, p, p -> q, p -> q => q", "false, false, p => q")]
    rng = random.Random(31)
    for _ in range(1500):
        ante = FMultiset(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        sequents.append(Sequent(ante, rng.choice(pool) if rng.random() < 0.85 else None))
    return rules, sequents


# sha256 of the format_instantiation lists of every (sequent, rule, mode) of
# _matcher_stream, recorded when each rule first compiled the share its
# contexts take; before, only the greedy lists of R_SL, R_SL-> and TP differed
MATCHER_OUTPUT = "e6264143c87a01723dd3d3d2ac67a03b6ad3e3209a20f9ed43170d0aa5fa4952"


def test_matcher_output_is_pinned():
    rules, sequents = _matcher_stream()
    assert {"K_user", "T_user", "K_user->", "KG->", "K1->", "R_SL->"} <= {ru.name for ru in rules}
    digest = hashlib.sha256()
    instances = 0
    for s in sequents:
        for rule in rules:
            for mode in (GREEDY, EXHAUSTIVE):
                insts = match_conclusion(rule, s, mode)
                instances += len(insts)
                digest.update(("|".join(map(format_instantiation, insts)) + "\n").encode())
    assert (instances, digest.hexdigest()) == (20_660, MATCHER_OUTPUT)


def _stage_kinds(rule):
    """(template text, closed) per stage, in stage order."""
    return [(template_text(t), lookup is not None) for t, lookup, _, _ in rule.stages]


def test_closed_stages_are_lookups():
    ax, lpimp, lbot = (g4ip().rule(n) for n in ("Ax", "LpImp", "LBot"))
    assert _stage_kinds(ax) == [("p", True)]  # the succedent binds p
    assert _stage_kinds(lpimp) == [("p -> phi", False), ("p", True)]
    assert lpimp.templates == (AVar("p"), Imp(AVar("p"), FVar("phi")))  # schema order
    assert _stage_kinds(lbot) == [("false", True)]
    (rule,), errors = parse_rules(
        "rule W { premises: G, phi, psi => D ; conclusion: G, psi, phi, phi & psi => D }")
    assert not errors
    assert _stage_kinds(rule) == [("phi & psi", False), ("psi", True), ("phi", True)]
    # a succedent template binds names too; an unbound bare name stays a scan
    rules, errors = parse_rules("""
rule V { premises: G, psi => phi ; conclusion: G, psi, phi => phi & psi }
rule U { premises: G, chi => phi ; conclusion: G, chi, phi => phi }
""")
    assert not errors
    assert _stage_kinds(rules[0]) == [("psi", True), ("phi", True)]
    assert _stage_kinds(rules[1]) == [("chi", False), ("phi", True)]
    # a closed atom stage still takes atoms only, which shows on a schema (with
    # schema_problems) whose succedent binds the name as a formula
    odd = RuleSchema("Odd", (), Pattern((CtxVar("G"), AVar("a")), FVar("a")), AXIOM)
    assert _stage_kinds(odd) == [("a", True)]
    assert match_conclusion(odd, parse_sequent("p & q => p & q")) == []
    assert len(match_conclusion(odd, parse_sequent("p => p"))) == 1


def test_open_stages_see_only_their_class(monkeypatch):
    rules, sequents = _matcher_stream()
    stage_templates: set = set()
    seen = 0
    real = calculus.match_template

    def classes(t):
        return Atom if type(t) is AVar else type(t)

    def checked(t, f, inst):
        nonlocal seen
        if id(t) in stage_templates and type(t) is not FVar:
            seen += 1
            assert type(f) is classes(t), (template_text(t), print_formula(f))
            if isinstance(t, (And, Or, Imp)) and type(t.left) is not FVar:
                assert type(f.left) is classes(t.left), (template_text(t), print_formula(f))
        return real(t, f, inst)

    monkeypatch.setattr(calculus, "match_template", checked)
    for rule in rules:
        # open stages only, and not the succedent, which is matched unfiltered
        stage_templates = {id(t) for t, lookup, _, _ in rule.stages if lookup is None}
        stage_templates.discard(id(rule.conclusion.succedent))
        for s in sequents:
            for mode in (GREEDY, EXHAUSTIVE):
                match_conclusion(rule, s, mode)
    assert seen > 1000
