"""The refuter: classical one-world countermodels, their checker, the gate
that decides which calculi ``prove_g4`` refutes in, and the refutations that
fail nodes of the search, the root or any other."""

import functools
import importlib.util
import itertools
import time
from pathlib import Path

import pytest

from seqprove import prover, refute as refute_module
from seqprove.syntax import And, Atom, Bot, Modal, Or, parse_sequent, subformulas
from seqprove.calculus import (
    build_g3ix, build_g4ix, builtin_modal_rules, g3ip, g4ip, match_conclusion, offered,
)
from seqprove.dsl import parse_rules
from seqprove.harness import FuzzConfig, gen_sequent
from seqprove.orders import DYCKHOFF
from seqprove.prover import TerminationViolation, _search, prove_g3, prove_g4, walk
from seqprove.refute import ATOM_LIMIT, holds, refute

B = builtin_modal_rules()
# criterion 1's rule sets and streams
RULE_SETS = ((), ("R_K",), ("R_K", "R_D"), ("R_T",))
STREAM = FuzzConfig(seed=42, count=500, max_size=12, atoms=3, max_modal_depth=2)


def _value(f, model) -> bool:
    """Classical truth of ``f`` in ``model``, boxes read as their bodies: a
    recursive oracle that shares nothing with ``holds``."""
    if isinstance(f, Atom):
        return f.name in model
    if isinstance(f, Bot):
        return False
    if isinstance(f, Modal):
        return _value(f.body, model)
    left, right = _value(f.left, model), _value(f.right, model)
    if isinstance(f, And):
        return left and right
    if isinstance(f, Or):
        return left or right
    return not left or right


def _true_in(model, s) -> bool:
    return not all(_value(f, model) for f in s.antecedent) or \
        (s.succedent is not None and _value(s.succedent, model))


def _atoms(s) -> list:
    formulas = list(s.antecedent) + ([s.succedent] if s.succedent is not None else [])
    return sorted({g.name for f in formulas for g in subformulas(f) if isinstance(g, Atom)})


def _models(s):
    names = _atoms(s)
    for bits in itertools.product((False, True), repeat=len(names)):
        yield frozenset(n for n, b in zip(names, bits) if b)


@functools.cache
def _streams() -> tuple:
    """(G4 calculus, G3 calculus, sequents) per rule set of criterion 1."""
    out = []
    for names in RULE_SETS:
        modal = [B[n] for n in names]
        out.append((build_g4ix(modal), build_g3ix(modal),
                    [gen_sequent(STREAM, i) for i in range(STREAM.count)]))
    return tuple(out)


def test_examples():
    assert refute(parse_sequent("=> p | ~p")) is None
    assert refute(parse_sequent("=> ((p -> q) -> p) -> p")) is None  # Peirce: classical
    assert refute(parse_sequent("p -> q => q")) == frozenset()
    assert refute(parse_sequent("q => p")) == {"q"}
    assert refute(parse_sequent("[]p =>")) == {"p"}  # the box read as its body
    assert refute(parse_sequent("[]false =>")) is None
    assert refute(parse_sequent("=> false")) == frozenset()
    assert not holds(frozenset(), parse_sequent("=> false"))
    assert holds({"p"}, parse_sequent("=> [](q -> p)"))
    assert not holds({"q"}, parse_sequent("[]q, p | q => p & q"))


def test_every_refutation_is_a_countermodel_and_flips_are_judged_right():
    refuted = flipped = 0
    for _, _, sequents in _streams():
        for s in sequents:
            model = refute(s)
            assert (model is None) == all(_true_in(m, s) for m in _models(s))
            if model is None:
                continue
            refuted += 1
            assert not holds(model, s) and not _true_in(model, s)
            for name in _atoms(s):
                other = model ^ {name}
                assert holds(other, s) == _true_in(other, s)
                flipped += holds(other, s)
    assert refuted > 500 and flipped > 500


def test_refuted_sequents_are_unprovable_by_search():
    # the search behind each root refutation, with the decrease check on:
    # criterion 3's run-time check still covers the sequents prove_g4 refutes
    refuted = 0
    for c4, _, sequents in _streams():
        assert c4.refutable
        for s in sequents:
            if refute(s) is not None:
                refuted += 1
                assert _search(c4, s, weight=DYCKHOFF).is_unprovable
                assert prove_g4(c4, s) is prover.UNPROVABLE
    assert refuted > 500


def test_derivations_hold_in_every_one_world_model():
    # the reading is sound for the rule sets refuted in: every sequent of
    # every derivation either engine finds holds in every model
    proved = 0
    for c4, c3, sequents in _streams():
        for s in sequents:
            for res in (prove_g4(c4, s), prove_g3(c3, s)):
                if res.derivation is None:
                    continue
                proved += 1
                for node in walk(res.derivation):
                    t = node.conclusion
                    assert refute(t) is None
                    assert all(holds(m, t) for m in _models(t))
    assert proved > 500


def test_atom_limit():
    def wide(n):  # n + 1 atoms
        return parse_sequent(", ".join(f"p{i}" for i in range(n)) + " => q")
    assert refute(wide(ATOM_LIMIT - 1)) == {f"p{i}" for i in range(ATOM_LIMIT - 1)}
    assert refute(wide(ATOM_LIMIT)) is None  # one atom too many: left to the search


def test_deep_formulas_do_not_recurse():
    s = parse_sequent("~" * 30001 + "p => p")
    assert refute(s) == frozenset()
    assert not holds(frozenset(), s)
    assert holds({"p"}, s)
    # refuted at the root node, before a rule is tried: searching it would
    # hit the recursion limit
    assert prove_g4(g4ip(), s) is prover.UNPROVABLE


def _calls(monkeypatch):
    # the roots prove_g4 builds a refuter for
    calls = []
    monkeypatch.setattr(prover, "refuter",
                        lambda s: calls.append(s) or refute_module.refuter(s))
    return calls


@pytest.mark.parametrize("calc", [
    g4ip(), build_g4ix([B["R_K"], B["R_D"]]), build_g4ix([B["R_K"], B["R_T"]]),
    build_g4ix([B["R_X"]]), build_g4ix([B["R_T"], B["R_X"]]),
], ids=lambda c: c.name)
def test_builtin_sound_calculi_are_refuted(monkeypatch, calc):
    calls = _calls(monkeypatch)
    assert calc.refutable
    assert prove_g4(calc, parse_sequent("[]p -> q => q")).is_unprovable
    assert len(calls) == 1


def _user(text):
    rules, errors = parse_rules(text)
    assert not errors
    return rules


@pytest.mark.parametrize("calc", [
    build_g4ix([B["R_K"], B["R_K4"]]),
    build_g4ix([B["R_GL"]]),
    # the same schema as R_K, but a user rule: == tells them apart
    build_g4ix(_user("rule R_K { premises: G => phi ; conclusion: P, box G => box phi }")),
    build_g4ix([B["R_K"], *_user("rule T_user { premises: G, phi => D ; conclusion: G, box phi => D }")]),
], ids=lambda c: c.name)
def test_other_calculi_are_searched(monkeypatch, calc):
    calls = _calls(monkeypatch)
    assert not calc.refutable
    assert prove_g4(calc, parse_sequent("p => q")).is_unprovable
    assert calls == []


def test_uncertified_rules_are_searched():
    # G3ip's LImp under the G4 engine: the search must still raise
    forced = type(g3ip())("G3ip", g3ip().rules, "G4")
    assert not forced.refutable
    with pytest.raises(TerminationViolation):
        prove_g4(forced, parse_sequent("p -> q => q"))


def test_the_certificate_bit_is_computed_once_per_rule(monkeypatch):
    from seqprove import orders
    calls = []
    certified = orders.certified
    monkeypatch.setattr(orders, "certified", lambda w, r: calls.append(r.name) or certified(w, r))
    calc = build_g4ix(_user("rule K_user { premises: G => phi ; conclusion: P, box G => box phi }"))
    for _ in range(2):
        orders.termination_guard(calc, 0)
        assert not calc.refutable
    # a builtin rule's bit may have been computed before this test
    assert len(calls) == len(set(calls)) and {"K_user", "K_user->"} <= set(calls)


# --- the refuter inside the search -------------------------------------------

_spec = importlib.util.spec_from_file_location(
    "bench_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)


def _refuted_nodes(monkeypatch, calc, sequents) -> set:
    """The nodes, roots included, that ``prove_g4`` fails by refutation when
    it searches ``sequents``, through ``prover._refuted`` as it is when this
    is called."""
    refuted, nodes = prover._refuted, set()

    def recording(falsify, t):
        hit = refuted(falsify, t)
        if hit:
            nodes.add(t)
        return hit

    with monkeypatch.context() as m:
        m.setattr(prover, "_refuted", recording)
        for s in sequents:
            prove_g4(calc, s)
    return nodes


def _wrongly_refuted(calc, nodes) -> list:
    # searched without a refuter, a refuted node must be unprovable
    return [t for t in nodes if not _search(calc, t, weight=DYCKHOFF).is_unprovable]


def _g4ip_families() -> list:
    return [parse_sequent(text) for _, calc, text, _ in inputs.families(1) if calc == "G4ip"]


def _invertible(calc, t) -> bool:
    # an invertible rule applies at ``t``: the search would commit to it
    _, safe, _ = calc.plan
    return any(r.shapes <= offered(t) and match_conclusion(r, t, calc.matching) for r in safe)


def test_interior_refutations_are_unprovable_by_search(monkeypatch):
    # every refuted node: roots, nodes where an invertible rule applies and
    # branching nodes alike
    runs = [(c4, sequents) for c4, _, sequents in _streams()]
    runs.append((g4ip(), _g4ip_families()))
    for calc, sequents in runs:
        nodes = _refuted_nodes(monkeypatch, calc, sequents)
        roots = nodes & set(sequents)
        assert roots and nodes - roots
        assert any(_invertible(calc, t) for t in nodes - roots)
        assert not _wrongly_refuted(calc, nodes)


def test_a_refuter_that_skips_holds_is_caught(monkeypatch):
    # a lying refuter: every sequent but the root gets the empty model
    monkeypatch.setattr(prover, "refuter", lambda root: lambda s: None if s is root else frozenset())
    s = parse_sequent("p | q => q | p")
    assert prove_g4(g4ip(), s).is_provable  # holds rejects every lie
    # the mutant trusts the model; the soundness check above catches it
    monkeypatch.setattr(prover, "_refuted", lambda falsify, t: falsify(t) is not None)
    assert prove_g4(g4ip(), s).is_unprovable
    assert _wrongly_refuted(g4ip(), _refuted_nodes(monkeypatch, g4ip(), [s]))


def _negated_link(m: int, fresh: bool):
    """de Bruijn's provable formula for odd ``m`` with its last link under
    ``~~``: classically valid, so no root refutation, but intuitionistically
    unprovable; ``fresh`` adds ``~q`` for a fresh atom ``q``."""
    a = inputs.Names(1)
    c = inputs.conj([a(i) for i in range(1, m + 1)])
    ante = [inputs.imp(inputs.iff(a(i), a(i + 1)), c) for i in range(1, m)]
    ante.append(inputs.neg(inputs.imp(inputs.iff(a(m), a(1)), c), 2))
    if fresh:
        ante.append(inputs.neg(a(0)))
    return parse_sequent(inputs.sequent(ante, c))


@pytest.mark.parametrize("fresh", [False, True])
def test_de_bruijn_negated_link_rows(fresh):
    small, large = _negated_link(3, fresh), _negated_link(5, fresh)
    assert refute(small) is None and refute(large) is None
    assert prove_g4(g4ip(), small) is prover.UNPROVABLE
    assert _search(g4ip(), small, weight=DYCKHOFF).is_unprovable
    # without a refuter the search takes about 1 s at m = 5 and 45 s at
    # m = 7 (CPython 3.11, 2-vCPU x86-64 host)
    t0 = time.perf_counter()
    assert prove_g4(g4ip(), large) is prover.UNPROVABLE
    assert time.perf_counter() - t0 < 1.0
