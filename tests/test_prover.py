import functools
import gc
import hashlib
import json
import random
import signal
import sys

import pytest

from seqprove import calculus, prover
from seqprove.syntax import And, Atom, FMultiset, Imp, Sequent, parse_sequent, print_sequent
from seqprove.calculus import (
    EXHAUSTIVE, build_g3ix, build_g4ix, builtin_modal_rules, g3ip, g4ip,
)
from seqprove.prover import (
    Derivation, SearchBudget, TerminationViolation, check_derivation,
    derivation_from_dict, derivation_from_json, derivation_to_dict, derivation_to_json,
    dumps_indented, find_strict_sensible, format_derivation, height, is_irreducible,
    is_sensible, is_strict, leftmost_length, prove_g3, prove_g4,
    strict_sensible_throughout, walk,
)

from oracles import is_rule_instance_unpinned

B = builtin_modal_rules()
G3, G4 = g3ip(), g4ip()
G3K, G4K = build_g3ix([B["R_K"]]), build_g4ix([B["R_K"]])
p, q = Atom("p"), Atom("q")


def seq(text):
    return parse_sequent(text)


def test_prove_g4_basics():
    assert prove_g4(G4, seq("=> p -> p")).is_provable
    assert prove_g4(G4, seq("=> ((p -> q) -> p) -> p")).is_unprovable
    assert prove_g4(G4K, seq("[]p & []q => [](p & q)")).is_provable


def test_prove_g4_never_unknown():
    rng = random.Random(0)
    from seqprove.harness import FuzzConfig, gen_sequent
    cfg = FuzzConfig(seed=7, count=0, max_size=9, atoms=3, max_modal_depth=2)
    for i in range(150):
        res = prove_g4(G4K, gen_sequent(cfg, i))
        assert res.is_definite


def test_prove_g3_basics():
    assert prove_g3(G3, seq("=> p | ~p")).is_unprovable
    assert prove_g3(G3, seq("false => q")).is_provable
    g3kd = build_g3ix([B["R_K"], B["R_D"]])
    assert prove_g3(g3kd, seq("[]false =>")).is_provable


def test_prove_g3_budget_unknown():
    res = prove_g3(G3, seq("=> ~~(p | ~p)"), SearchBudget(max_depth=2, max_nodes=1000))
    assert res.status == "unknown" and res.reason == "budget-exhausted"
    res = prove_g3(G3, seq("=> ~~(p | ~p)"), SearchBudget(max_depth=60, max_nodes=3))
    assert res.status == "unknown"


def test_budget_escalation_monotone():
    # doubling the depth never flips a definite verdict
    goals = ["=> ~~(p | ~p)", "=> p | ~p", "=> (p -> q) | (q -> p)",
             "p -> q, q -> p => p | ~q", "=> ((p -> q) -> p) -> p"]
    for text in goals:
        s = seq(text)
        verdicts = []
        depth = 5
        while depth <= 160:
            verdicts.append(prove_g3(G3, s, SearchBudget(max_depth=depth)).status)
            depth *= 2
        definite = [v for v in verdicts if v != "unknown"]
        assert len(set(definite)) <= 1
        k = next(i for i, v in enumerate(verdicts) if v != "unknown")
        assert all(v == definite[0] for v in verdicts[k:])


def test_termination_violation_raised():
    bad = build_g3ix([])  # G3-style: LImp repeats its principal formula
    forced = type(bad)(bad.name, bad.rules, "G4")
    with pytest.raises(TerminationViolation):
        prove_g4(forced, seq("p -> q => q"))


def test_check_derivation_accepts_prover_output():
    for calc, text in [(G4, "=> (p | q) -> (q | p)"), (G4K, "[](p -> q), []p => []q"),
                       (G3, "p & q => q & p")]:
        engine = prove_g4 if calc.style == "G4" else prove_g3
        res = engine(calc, seq(text))
        assert res.is_provable
        assert check_derivation(calc, res.derivation)


def test_check_derivation_rejects_bad_trees():
    fake_ax = Derivation(seq("p => q"), "Ax", None)
    assert not check_derivation(G3, fake_ax)
    unknown_rule = Derivation(seq("p => p"), "R_K", None)
    assert not check_derivation(G3, unknown_rule)  # R_K not in G3ip
    res = prove_g4(G4, seq("=> p -> p"))
    wrong_child = Derivation(res.derivation.conclusion, res.derivation.rule,
                             res.derivation.instantiation,
                             (Derivation(seq("q => q"), "Ax", None),))
    assert not check_derivation(G4, wrong_child)


# --- the checker's forced bindings ---------------------------------------------

@functools.cache
def _fuzz_derivations() -> tuple:
    """(calculus, derivation) for criterion 8's fuzz stream over the rule sets
    of criterion 1: each derivation both engines find, and its reloaded copy,
    which has no instantiations.  A few fixed sequents reach ``R_K->``."""
    from seqprove.harness import FuzzConfig, gen_sequent
    cfg = FuzzConfig(seed=808, count=0, max_size=9, atoms=3, max_modal_depth=2)
    extra = [seq(t) for t in ("[]p, []p -> q => q", "[]p, []q, [](p & q) -> r => r | q",
                              "[]p -> q, []p, [](p -> r) => q & []r")]
    out = []
    for names in ((), ("R_K",), ("R_K", "R_D"), ("R_T",)):
        modal = [B[n] for n in names]
        c4, c3 = build_g4ix(modal), build_g3ix(modal)
        for s in [gen_sequent(cfg, i) for i in range(150)] + extra * bool(names):
            for calc, engine in ((c4, prove_g4), (c3, prove_g3)):
                res = engine(calc, s)
                if res.is_provable:
                    out.append((calc, res.derivation))
                    out.append((calc, derivation_from_json(derivation_to_json(res.derivation))))
    return tuple(out)


def test_check_agrees_with_unpinned_oracle_on_fuzz_derivations():
    rules = set()
    for calc, d in _fuzz_derivations():
        for node in walk(d):
            assert prover._is_rule_instance(calc, node)
            assert is_rule_instance_unpinned(calc, node)
            rules.add(node.rule)
    assert {"R_K", "R_K->", "R_D", "R_T", "RAnd", "LImp", "LImpImp"} <= rules


_FRESH = Atom("fresh")


def _mutants(calc, node):
    """Broken copies of ``node``: a child conclusion with one formula dropped or
    added, or its succedent dropped; the children swapped; the rule renamed."""
    kids = node.children

    def with_kid(i, concl):
        k = kids[i]
        return Derivation(node.conclusion, node.rule, node.instantiation,
                          kids[:i] + (Derivation(concl, k.rule, None, k.children),) + kids[i + 1:])

    for i, k in enumerate(kids):
        ante, succ = k.conclusion.antecedent, k.conclusion.succedent
        for f in ante.distinct():
            yield with_kid(i, Sequent(ante.remove(f), succ))
            yield with_kid(i, Sequent(ante.add(f), succ))
        yield with_kid(i, Sequent(ante.add(_FRESH), succ))
        if succ is not None:
            yield with_kid(i, Sequent(ante, None))
    if len(kids) > 1:
        yield Derivation(node.conclusion, node.rule, node.instantiation, kids[::-1])
    for r in calc.rules:
        if r.name != node.rule and len(r.premises) == len(kids):
            yield Derivation(node.conclusion, r.name, None, kids)


def test_check_agrees_with_unpinned_oracle_on_mutated_nodes():
    mutants = rejected = 0
    for calc, d in _fuzz_derivations()[::2]:
        for node in walk(d):
            for m in _mutants(calc, node):
                for bare in (m, Derivation(m.conclusion, m.rule, None, m.children)):
                    verdict = prover._is_rule_instance(calc, bare)
                    assert verdict == is_rule_instance_unpinned(calc, bare)
                    rejected += not verdict
                mutants += 1
    assert mutants > 5000 and rejected > 0.9 * 2 * mutants


def test_r_k_child_beyond_the_boxes_is_rejected():
    # the child's antecedent must be a sub-multiset of the conclusion's bodies
    for concl, kid in (("[]p => []p", "p, p => p"), ("[]p, q => []p", "p, q => p"),
                       ("[]p, [][]q => []p", "p, q => p")):
        d = Derivation(seq(concl), "R_K", None, (Derivation(seq(kid), "Ax", None),))
        assert not is_rule_instance_unpinned(G4K, d)
        assert not check_derivation(G4K, d)


def test_reloaded_r_k_node_with_a_non_greedy_split():
    # P keeps a boxed formula, which a greedy match would put in box G
    for concl, kid in (("[]p, []q => []p", "p => p"), ("[]p, []p => []p", "p => p"),
                       ("[]p, []q, q => []p", "p => p"), ("[]p, [][]p => []p", "p => p")):
        d = Derivation(seq(concl), "R_K", None, (Derivation(seq(kid), "Ax", None),))
        loaded = derivation_from_json(derivation_to_json(d))
        assert check_derivation(G4K, loaded)
        assert is_rule_instance_unpinned(G4K, loaded)


def _expire(signum, frame):
    raise TimeoutError


def test_reloaded_r_k_node_over_24_boxes_checks_fast():
    # an unpinned match would try all 2^24 sub-multisets of the boxes and
    # hold them in memory: an alarm stops the check after 1 s instead
    n = 24
    boxes = ", ".join(f"[]p{i}" for i in range(n))
    old = signal.signal(signal.SIGALRM, _expire)
    try:
        for kid in ("p0 => p0", ", ".join(f"p{i}" for i in range(n)) + " => p0"):
            d = Derivation(seq(f"{boxes} => []p0"), "R_K", None,
                           (Derivation(seq(kid), "Ax", None),))
            loaded = derivation_from_json(derivation_to_json(d))
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            assert check_derivation(G4K, loaded)
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("names, text", [
    (("R_K", "R_D"), "{boxes}, []false => q"),
    (("R_K4",), "{boxes} => [](p0 | p1)"),
    (("R_GL",), "{boxes} => [](p0 | p1)"),
    (("R_X",), "{boxes} => [](q -> q)"),
])
def test_reloaded_modal_root_over_24_boxes_checks_fast(names, text):
    # the premise antecedents G, phi (R_D), G, box G (R_K4), G, box G, box phi
    # (R_GL) and box G (R_X) pin G: one match per distinct formula at most
    n = 24
    s = seq(text.format(boxes=", ".join(f"[]p{i}" for i in range(n))))
    modal = [B[name] for name in names]
    calc = build_g4ix(modal) if names[0] == "R_K" else build_g3ix(modal)
    d = (prove_g4 if calc.style == "G4" else prove_g3)(calc, s).derivation
    assert d.rule == names[-1]
    loaded = derivation_from_json(derivation_to_json(d))
    old = signal.signal(signal.SIGALRM, _expire)
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        assert check_derivation(calc, loaded)
        signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_reloaded_derivations_share_nodes(monkeypatch):
    # one node object per distinct (sequent, rule, children), never more
    # than the original has, and one parse per distinct sequent text
    parsed = []
    real = prover.parse_sequent
    monkeypatch.setattr(prover, "parse_sequent",
                        lambda text, memo: parsed.append(text) or real(text, memo))
    shared = 0
    for _, d in _fuzz_derivations()[::2]:
        parsed.clear()
        loaded = derivation_from_json(derivation_to_json(d))
        assert [(n.conclusion, n.rule) for n in walk(loaded)] == \
            [(n.conclusion, n.rule) for n in walk(d)]
        distinct = list({id(n): n for n in walk(loaded)}.values())
        assert len(distinct) <= len({id(n) for n in walk(d)})
        assert len({(n.conclusion, n.rule, n.children) for n in distinct}) == len(distinct)
        assert sorted(parsed) == sorted({print_sequent(n.conclusion) for n in distinct})
        shared += len(distinct) < sum(1 for _ in walk(d))
    assert shared > 10


def test_check_derivation_checks_each_shared_node_once(monkeypatch):
    checked = []
    real = prover._is_rule_instance
    monkeypatch.setattr(prover, "_is_rule_instance",
                        lambda calc, node: checked.append(node) or real(calc, node))
    leaf = Derivation(seq("p => p"), "Ax", None)
    shared = Derivation(seq("p => p & p"), "RAnd", None, (leaf, leaf))
    assert check_derivation(G3, Derivation(seq("p => (p & p) & (p & p)"), "RAnd", None,
                                           (shared, shared)))
    assert len(checked) == 3
    bad = Derivation(seq("p => q"), "Ax", None)
    assert not check_derivation(G3, Derivation(seq("p => q & q"), "RAnd", None, (bad, bad)))
    # the search shares subtrees through its memo: verdicts do not change
    for calc, d in _fuzz_derivations()[::2]:
        checked.clear()
        assert check_derivation(calc, d)
        assert len(checked) == len({id(node) for node in walk(d)})


def test_is_irreducible():
    assert not is_irreducible(seq("p | q => r"))
    assert not is_irreducible(seq("p & q => r"))
    assert not is_irreducible(seq("false => r"))
    assert not is_irreducible(seq("p, p -> q => r"))
    assert is_irreducible(seq("p, []p -> q => p & q"))
    assert is_irreducible(seq("q, p -> q => r"))  # p itself is absent


def test_is_sensible_is_strict():
    res = prove_g3(G3, seq("=> p -> p"))
    assert is_sensible(res.derivation, G3)  # root RImp, not a left rule
    res = prove_g3(G3, seq("p, p -> q => q"))
    assert res.derivation.rule == "LImp"
    assert not is_sensible(res.derivation, G3)
    res = prove_g3(G3K, seq("[]p -> q, []p => q"))
    assert res.derivation.rule == "LImp"
    assert is_sensible(res.derivation, G3K)
    # strictness: LImp on a boxed implication needs an axiom or right modal
    # rule on the left
    assert res.derivation.children[0].rule == "R_K"
    assert is_strict(res.derivation, G3K)
    bad = Derivation(res.derivation.conclusion, "LImp", res.derivation.instantiation,
                     (Derivation(seq("[]p -> q, []p => []p"), "LImp",
                                 res.derivation.instantiation),
                      res.derivation.children[1]))
    assert not is_strict(bad, G3K)


def test_is_strict_vacuous_for_other_roots():
    res = prove_g3(G3, seq("p & q => p"))
    assert res.derivation.rule == "LAnd"
    assert is_strict(res.derivation, G3)


def test_find_strict_sensible_requires_irreducible():
    with pytest.raises(ValueError):
        find_strict_sensible(G3, seq("p & q => p"))


def test_find_strict_sensible_example():
    s = seq("[]p -> q, []p => q")
    res = find_strict_sensible(G3K, s)
    assert res.is_provable
    assert strict_sensible_throughout(res.derivation, G3K)
    assert check_derivation(G3K, res.derivation)
    # the left premise of the root is closed by the right modal rule
    assert res.derivation.rule == "LImp"
    assert res.derivation.children[0].rule == "R_K"


def test_heights():
    leaf = Derivation(seq("p => p"), "Ax", None)
    assert height(leaf) == 1 and leftmost_length(leaf) == 1
    chain = Derivation(seq("=> q"), "X", None,
                       (Derivation(seq("=> q"), "Y", None, (leaf,)),))
    assert height(chain) == 3 and leftmost_length(chain) == 3
    two = Derivation(seq("=> q"), "X", None, (leaf, chain))
    assert height(two) == 4 and leftmost_length(two) == 2


@pytest.mark.parametrize("measure", [
    lambda d: height(d) == 26, lambda d: strict_sensible_throughout(d, G3),
], ids=["height", "strict_sensible_throughout"])
def test_shared_nodes_are_visited_once(measure):
    # A_0 = p -> p and A_(k+1) = A_k & A_k: the derivation of => A_24 that
    # the search finds has 26 distinct nodes but 2^24 leaf occurrences, so
    # visiting every occurrence would take about a minute; an alarm stops
    # the walk after 1 s instead
    a = Imp(p, p)
    for _ in range(24):
        a = And(a, a)
    d = find_strict_sensible(G3, Sequent(FMultiset(), a)).derivation
    old = signal.signal(signal.SIGALRM, _expire)
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        assert measure(d)
        signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_derivation_json_round_trip():
    res = prove_g4(G4K, seq("[]p & []q => [](p & q)"))
    blob = derivation_to_json(res.derivation)
    loaded = derivation_from_json(blob)
    assert derivation_to_json(loaded) == blob
    # the checker re-derives instantiations for deserialized trees
    assert check_derivation(G4K, loaded)
    d = json.loads(blob)
    assert list(d.keys()) == ["sequent", "rule", "children"]


def test_proof_uses_only_calculus_rules():
    res = prove_g3(G3K, seq("[]p -> q, []p => q"))
    names = {ru.name for ru in G3K.rules}
    assert all(node.rule in names for node in walk(res.derivation))


def test_cross_engine_agreement_small():
    from seqprove.harness import FuzzConfig, gen_sequent
    cfg = FuzzConfig(seed=3, count=0, max_size=8, atoms=2, max_modal_depth=1)
    for i in range(120):
        s = gen_sequent(cfg, i)
        r4 = prove_g4(G4K, s)
        r3 = prove_g3(G3K, s)
        if r3.is_definite:
            assert r3.status == r4.status, str(s)


def test_a_calculus_without_weakening_is_searched_exhaustively():
    # M keeps no context, so weakening is not admissible, and W's premise
    # q => [1](r -> r) is unprovable where => [1](r -> r) is provable: the
    # greedy match that gives W's G the q would lose the derivation
    from seqprove.dsl import parse_rules
    rules, errors = parse_rules("rule W { premises: G => phi ; conclusion: G, H => box phi }\n"
                                "rule M { premises: => phi ; conclusion: => box(1) phi }")
    assert not errors
    for build, prove in ((build_g3ix, prove_g3), (build_g4ix, prove_g4)):
        assert build(rules[:1]).matching == calculus.GREEDY
        calc = build(rules)
        assert calc.matching == EXHAUSTIVE
        res = prove(calc, seq("q => [][1](r -> r)"))
        assert res.is_provable and check_derivation(calc, res.derivation)
    assert all(c.matching == calculus.GREEDY for c in (
        g3ip(), g4ip(), build_g3ix(list(B.values())), build_g4ix(list(B.values()))))


def test_user_rule_prune_gives_incomplete_strategy():
    from seqprove.dsl import parse_rules
    # an identity-shaped user rule forces a pruned branch through itself
    rules, errors = parse_rules(
        "rule Spin { premises: G, box phi => D ; conclusion: G, box phi => D }")
    assert not errors
    calc = build_g3ix(rules)
    res = prove_g3(calc, seq("[]p => q"))
    assert res.status == "unknown"
    assert res.reason == "incomplete-strategy"
    # without the user rule the same goal is definitely unprovable
    assert prove_g3(G3, seq("[]p => q")).is_unprovable


def test_memoization_does_not_change_verdicts():
    from seqprove.prover import _search
    from seqprove.harness import FuzzConfig, gen_sequent
    cfg = FuzzConfig(seed=31, count=0, max_size=7, atoms=2, max_modal_depth=1)
    budget = SearchBudget(max_depth=40, max_nodes=50_000)
    for i in range(80):
        s = gen_sequent(cfg, i)
        with_memo = _search(G3K, s, budget=budget, memoize=True)
        without = _search(G3K, s, budget=budget, memoize=False)
        if with_memo.is_definite and without.is_definite:
            assert with_memo.status == without.status, str(s)


def test_verdict_invariant_under_inversion_step():
    # one L-and / L-or inversion step preserves the prove_g3 verdict
    from seqprove.syntax import And, Or, FMultiset
    from seqprove.harness import FuzzConfig, gen_formula, gen_sequent
    cfg = FuzzConfig(seed=77, count=0, max_size=6, atoms=2, max_modal_depth=1)
    checked = 0
    for i in range(200):
        s = gen_sequent(cfg, i)
        target = next((f for f in s.antecedent.support() if isinstance(f, (And, Or))), None)
        if target is None:
            continue
        base = s.antecedent.remove(target)
        r0 = prove_g3(G3K, s)
        if not r0.is_definite:
            continue
        if isinstance(target, And):
            inverted = [type(s)(base.add(target.left).add(target.right), s.succedent)]
        else:
            inverted = [type(s)(base.add(target.left), s.succedent),
                        type(s)(base.add(target.right), s.succedent)]
        verdicts = [prove_g3(G3K, t) for t in inverted]
        if all(v.is_definite for v in verdicts):
            assert (r0.is_provable) == all(v.is_provable for v in verdicts), str(s)
            checked += 1
    assert checked >= 30


def test_search_uses_the_rules_compiled_at_construction(monkeypatch):
    c4, c3 = build_g4ix([B["R_K"], B["R_T"]]), build_g3ix([B["R_K"], B["R_T"]])
    s = seq("[](p -> q), []p, (p & q) -> r, s | t => []q & ((s | t) -> (p | r))")
    calls = []
    schema_metavars = calculus.schema_metavars
    monkeypatch.setattr(calculus, "schema_metavars",
                        lambda rule: calls.append(rule.name) or schema_metavars(rule))
    assert prove_g4(c4, s).is_provable
    assert prove_g3(c3, s).is_provable
    assert calls == []


def test_search_leaves_no_reference_cycles():
    # the search kernel recurses through a closure; neither it nor the matcher
    # may leave memos or match results to the cyclic collector
    c4, c3 = build_g4ix([B["R_K"], B["R_T"]]), build_g3ix([B["R_K"], B["R_T"]])
    s = seq("[](p -> q), []p, (p & q) -> r, s | t => []q & ((s | t) -> (p | r))")
    prove_g4(c4, s), prove_g3(c3, s)  # build the plans outside the measurement
    gc.collect()
    gc.disable()
    try:
        assert prove_g4(c4, s).is_provable
        assert prove_g3(c3, s).is_provable
        assert prove_g4(G4, seq("p | q => q")).status == "unprovable"
        assert calculus.match_conclusion(c3.rule("LAnd"), seq("p & q, r & s => p"), EXHAUSTIVE)
        assert gc.collect() == 0
    finally:
        gc.enable()


SEARCH_FINGERPRINT = "d9e556951b668e96044894859c7a60b4704e5382e62274b044d7c0b17cd20f06"


@functools.cache
def _pinned_results() -> tuple:
    """(calculus, result) of every search over seeded harness streams:
    prove_g4 and prove_g3 with R_K, R_D and R_T, tight budgets, a user rule
    that taints pruned branches, and the strict search."""
    from seqprove.dsl import parse_rules
    from seqprove.harness import FuzzConfig, _irreducible_candidate, gen_sequent
    out = []
    cfg = FuzzConfig(seed=5, count=0, max_size=9, atoms=3, max_modal_depth=2)
    tight = SearchBudget(max_depth=6, max_nodes=300)
    for names in ((), ("R_K",), ("R_K", "R_D"), ("R_K", "R_T"), ("R_T",)):
        modal = [B[n] for n in names]
        c4, c3 = build_g4ix(modal), build_g3ix(modal)
        for i in range(60):
            s = gen_sequent(cfg, i)
            out.append((c4, prove_g4(c4, s)))
            out.append((c3, prove_g3(c3, s)))
            out.append((c3, prove_g3(c3, s, tight)))
    rules, errors = parse_rules(
        "rule Spin { premises: G, box phi => D ; conclusion: G, box phi => D }")
    assert not errors
    spin = build_g3ix([B["R_K"], *rules])
    for i in range(40):
        out.append((spin, prove_g3(spin, gen_sequent(cfg, i))))
    budget = SearchBudget(max_depth=40, max_nodes=20_000)
    for names in (("R_K",), ("R_K", "R_T")):
        c3 = build_g3ix([B[n] for n in names])
        found = 0
        for i in range(400):
            s = _irreducible_candidate(cfg, i)
            if is_irreducible(s):
                out.append((c3, find_strict_sensible(c3, s, budget)))
                found += 1
        assert found >= 100
    return tuple(out)


def _pinned_derivations() -> list:
    return [res.derivation for _, res in _pinned_results() if res.derivation is not None]


def _search_fingerprint() -> str:
    """sha256 of the status, reason and derivation of every pinned search."""
    digest = hashlib.sha256()
    for _, res in _pinned_results():
        blob = derivation_to_json(res.derivation) if res.derivation is not None else ""
        digest.update(f"{res.status}|{res.reason}|{blob}\n".encode())
    return digest.hexdigest()


def test_search_picks_the_same_derivations():
    # any change in which derivation a search returns, or in an Unknown
    # reason, changes the hash; only an intended change of the search order
    # may update the constant
    assert _search_fingerprint() == SEARCH_FINGERPRINT


def test_reloaded_nodes_are_judged_like_the_originals():
    # a reloaded node carries no instantiation: the predicates judge it under
    # the first one the checker accepts, not vacuously
    judged = 0
    for calc, res in _pinned_results():
        if res.derivation is None:
            continue
        original = list(walk(res.derivation))
        reloaded = list(walk(derivation_from_json(derivation_to_json(res.derivation))))
        assert len(original) == len(reloaded)
        for a, b in zip(original, reloaded):
            assert b.instantiation is None
            assert is_sensible(b, calc) == is_sensible(a, calc)
            assert is_strict(b, calc) == is_strict(a, calc)
            judged += not is_sensible(a, calc)
    assert judged > 0


def test_a_node_that_instantiates_no_rule_is_neither_sensible_nor_strict():
    res = prove_g3(G3, seq("p, p -> q => q"))
    d = res.derivation
    assert d.rule == "LImp" and not is_sensible(d, G3)
    assert not is_sensible(derivation_from_json(derivation_to_json(d)), G3)
    wrong = Derivation(seq("p, p -> q => r"), "LImp", None, d.children)
    assert not is_sensible(wrong, G3) and not is_strict(wrong, G3)


def _walk_ref(d):
    yield d
    for c in d.children:
        yield from _walk_ref(c)


def _height_ref(d):
    return 1 + max((_height_ref(c) for c in d.children), default=0)


def _format_ref(d, depth=0):
    lines = ["  " * depth + f"{print_sequent(d.conclusion)}   [{d.rule}]"]
    lines.extend(_format_ref(c, depth + 1) for c in d.children)
    return "\n".join(lines)


def test_traversals_match_recursive_references():
    derivations = _pinned_derivations()
    assert len(derivations) > 500
    for d in derivations:
        assert [id(n) for n in walk(d)] == [id(n) for n in _walk_ref(d)]
        assert height(d) == _height_ref(d)
        assert format_derivation(d) == _format_ref(d)
        assert format_derivation(d, 3) == _format_ref(d, 3)


def _chain(n):
    """A linear derivation with ``n`` nodes, built directly."""
    s = seq("p => p")
    d = Derivation(s, "Ax", None)
    for _ in range(n - 1):
        d = Derivation(s, "X", None, (d,))
    return d


def test_deep_derivations_do_not_recurse():
    d = _chain(30_000)
    assert sum(1 for _ in walk(d)) == 30_000
    assert height(d) == 30_000
    # every line is indented by its depth, so a 30,000-deep text would take
    # about 1 GB; a lower recursion limit shows the same independence
    shallow = _chain(3_000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        lines = format_derivation(shallow).split("\n")
        loaded = derivation_from_dict(derivation_to_dict(shallow))
    finally:
        sys.setrecursionlimit(limit)
    assert len(lines) == 3_000
    assert lines[-1] == "  " * 2_999 + "p => p   [Ax]"
    assert [(n.conclusion, n.rule) for n in walk(loaded)] == \
        [(n.conclusion, n.rule) for n in walk(shallow)]


def _land_chain(n: int, with_instantiations: bool, leaf_ps: int = 0) -> Derivation:
    """The G3ip derivation of ``p & (p & (... & p)) => p`` (n conjunctions):
    n LAnd steps ending in Ax, with ``leaf_ps`` p's at the leaf (n + 1 when 0)."""
    def ps(k):
        return FMultiset([p]).add(p, k - 1) if k else FMultiset()

    leaf_ps = leaf_ps or n + 1
    inst = {"G": ps(leaf_ps - 1), "p": p} if with_instantiations else None
    d = Derivation(Sequent(ps(leaf_ps), p), "Ax", inst)
    conj = p
    for k in range(n - 1, -1, -1):  # the node whose antecedent is p^k, conj
        inst = ({"G": ps(k), "phi": p, "psi": conj, "D": p}
                if with_instantiations else None)
        conj = And(p, conj)
        d = Derivation(Sequent(ps(k).add(conj), p), "LAnd", inst, (d,))
    return d


@pytest.mark.parametrize("n", [7_000, 30_000])
def test_check_derivation_accepts_deep_derivations(n):
    # deeper than the recursion limit allows a recursive walk to go: the
    # verdict must not depend on that limit
    for with_instantiations in (True, False):
        assert check_derivation(G3, _land_chain(n, with_instantiations))
    short = _land_chain(n, False, leaf_ps=n)  # one p too few at the leaf
    assert not check_derivation(G3, short)


def test_check_derivation_does_not_turn_recursion_errors_into_verdicts(monkeypatch):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(prover, "instantiate_counts", too_deep)
    with pytest.raises(RecursionError):
        check_derivation(G3, _land_chain(3, True))


def test_dict_round_trip_over_pinned_derivations():
    for d in _pinned_derivations():
        loaded = derivation_from_dict(derivation_to_dict(d))
        assert [(n.conclusion, n.rule) for n in walk(loaded)] == \
            [(n.conclusion, n.rule) for n in walk(d)]


def test_indented_writer_is_json_dumps():
    # json.dumps(..., indent=k) is the reference, byte for byte
    payloads = [derivation_to_dict(d) for d in _pinned_derivations()]
    payloads += [
        {}, [], [[]], [{}], {"a": []}, {"a": {}, "b": [[], {}]}, [[[[]]]],
        None, True, False, 0, -7, 2 ** 70, "", [None, True, False, 1, "x"],
        {"verdict": "unknown", "reason": "budget-exhausted", "derivation": None},
        {"verdict": "unprovable", "derivation": None},
        derivation_to_dict(Derivation(seq("é, π -> q => é & q"), 'Rü"\\le',
                                      None, (Derivation(seq("=> é"), "Ax\t\n", None),))),
        {'quote " back \\ slash': ['☃', "\x00\x1f\x7f", "\ud800"]},
    ]
    for obj in payloads:
        for indent in (2, 0, 4):
            assert dumps_indented(obj, indent) == json.dumps(obj, indent=indent)
    d = _pinned_derivations()[-1]
    assert derivation_to_json(d, indent=2) == json.dumps(derivation_to_dict(d), indent=2)
    assert derivation_to_json(d) == json.dumps(derivation_to_dict(d))


def test_indented_writer_rejects_what_it_cannot_write():
    for obj in ([object()], {1: "x"}, {"a": 1.5}):
        with pytest.raises(TypeError):
            dumps_indented(obj, 2)
