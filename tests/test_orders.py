import hashlib
import itertools
import random

import pytest

from seqprove.syntax import (
    And, Atom, Bot, FMultiset, Imp, Modal, Or, Sequent, parse_formula, parse_sequent,
)
from seqprove.calculus import (
    LEFT, AVar, BoxedCtx, CtxVar, FVar, Pattern, RuleSchema, SuccVar, builtin_modal_rules,
    format_instantiation, g3ip, g4ip, instantiate_pattern, instantiate_premises, schema_problems,
)
from seqprove.orders import (
    DYCKHOFF, SamplingConfig, WeightFunction, check_schema_termination,
    multiset_less, sequent_less,
)

pf = parse_formula
p, q, r = Atom("p"), Atom("q"), Atom("r")


def ms(*texts):
    return FMultiset(pf(t) for t in texts)


# --- independent oracle: the definition executed literally -------------------

def submultisets(gamma):
    items = gamma.items()
    for combo in itertools.product(*[range(n + 1) for _, n in items]):
        yield FMultiset(f for (f, _), k in zip(items, combo) for _ in range(k))


def multiset_less_bruteforce(w, delta, gamma):
    """delta = (gamma - X) + Y for some nonempty X, with every formula of Y
    strictly below some formula of X."""
    for x in submultisets(gamma):
        if not x:
            continue
        rest = gamma.diff(x)
        if not rest.issubset(delta):
            continue
        y = delta.diff(rest)
        if all(any(w.weight(b) < w.weight(a) for a in x.support()) for b in y.support()):
            return True
    return False


def test_weight_dyckhoff_values():
    assert DYCKHOFF.weight(p) == 1
    assert DYCKHOFF.weight(Bot()) == 1
    assert DYCKHOFF.weight(pf("p & q")) == 4
    assert DYCKHOFF.weight(pf("p | q")) == 3
    assert DYCKHOFF.weight(pf("p -> q")) == 3
    assert DYCKHOFF.weight(pf("[]p")) == 2
    assert DYCKHOFF.weight(pf("~p")) == 3


def test_weight_invariants():
    rng = random.Random(0)
    pool = [pf(t) for t in ["p", "q", "false", "p & q", "p | q", "~p", "[]p",
                            "[](p -> q)", "p -> q -> r"]]
    for f in pool:
        w = DYCKHOFF.weight(f)
        assert w >= 1
        if not isinstance(f, (Atom, Bot)):
            assert w > 1


def test_weight_function_validation():
    with pytest.raises(ValueError):
        WeightFunction("bad", and_inc=0)


def test_multiset_less_examples():
    assert multiset_less(DYCKHOFF, ms("p"), ms("p -> q"))
    assert multiset_less(DYCKHOFF, ms("p", "p", "p"), ms("p & p"))
    for gamma in (ms(), ms("p"), ms("p", "p & q")):
        assert not multiset_less(DYCKHOFF, gamma, gamma)


_POOL = [pf(t) for t in ["p", "q", "false", "p & q", "p | q", "p -> q", "[]p", "~p"]]


def test_multiset_less_matches_bruteforce_random():
    rng = random.Random(42)
    for _ in range(1500):
        delta = FMultiset(rng.choice(_POOL) for _ in range(rng.randint(0, 4)))
        gamma = FMultiset(rng.choice(_POOL) for _ in range(rng.randint(0, 4)))
        assert multiset_less(DYCKHOFF, delta, gamma) == \
            multiset_less_bruteforce(DYCKHOFF, delta, gamma)


def test_multiset_less_matches_bruteforce_other_weights():
    # "flat" and DYCKHOFF rank these three differently: under "flat" p & q
    # ties with p | q and weighs less than [](p | q), under DYCKHOFF it is
    # the other way round; every multiplicity 0..3 of each formula
    flat = WeightFunction("flat", and_inc=1)
    trio = [pf("p & q"), pf("p | q"), pf("[](p | q)")]
    vectors = list(itertools.product(range(4), repeat=len(trio)))
    sets = [FMultiset(f for f, k in zip(trio, v) for _ in range(k)) for v in vectors]
    for delta in sets:
        for gamma in sets:
            assert multiset_less(flat, delta, gamma) == \
                multiset_less_bruteforce(flat, delta, gamma), (delta, gamma)
    assert not multiset_less(flat, ms("p | q"), ms("p & q"))
    assert multiset_less(DYCKHOFF, ms("p | q"), ms("p & q"))
    assert multiset_less(flat, ms("p & q"), ms("[](p | q)"))
    assert not multiset_less(DYCKHOFF, ms("p & q"), ms("[](p | q)"))


def test_multiset_less_irreflexive_transitive():
    rng = random.Random(7)
    sets = [FMultiset(rng.choice(_POOL) for _ in range(rng.randint(0, 4)))
            for _ in range(40)]
    for a in sets:
        assert not multiset_less(DYCKHOFF, a, a)
    for a, b, c in itertools.product(sets[:12], repeat=3):
        if multiset_less(DYCKHOFF, a, b) and multiset_less(DYCKHOFF, b, c):
            assert multiset_less(DYCKHOFF, a, c)


def test_multiset_less_union_compatible():
    rng = random.Random(8)
    for _ in range(300):
        a = FMultiset(rng.choice(_POOL) for _ in range(rng.randint(0, 3)))
        b = FMultiset(rng.choice(_POOL) for _ in range(rng.randint(0, 3)))
        extra = FMultiset(rng.choice(_POOL) for _ in range(rng.randint(0, 3)))
        if multiset_less(DYCKHOFF, a, b):
            assert multiset_less(DYCKHOFF, a.union(extra), b.union(extra))


def test_strict_submultiset_is_less():
    rng = random.Random(9)
    for _ in range(200):
        gamma = FMultiset(rng.choice(_POOL) for _ in range(rng.randint(1, 4)))
        delta = gamma.remove(rng.choice(gamma.support()))
        assert multiset_less(DYCKHOFF, delta, gamma)


def test_sequent_less():
    assert sequent_less(DYCKHOFF, parse_sequent("p => q"), parse_sequent("p & q => q"))
    # the R_T decrease at phi=p, G={q}, D=r
    assert sequent_less(DYCKHOFF, parse_sequent("q, p => r"), parse_sequent("q, []p => r"))
    s = parse_sequent("p, q => r")
    assert not sequent_less(DYCKHOFF, s, s)
    # absent succedent contributes the empty multiset
    assert sequent_less(DYCKHOFF, parse_sequent("p =>"), parse_sequent("p => q"))


def _merged(s):
    """The sequent's antecedent-plus-succedent multiset, by definition."""
    return s.antecedent if s.succedent is None else s.antecedent.add(s.succedent)


@pytest.mark.parametrize("w", [DYCKHOFF, WeightFunction("flat", and_inc=1)],
                         ids=["dyckhoff", "flat"])
def test_sequent_less_matches_merged_definition(w):
    rng = random.Random(31)
    kinds = {"shared": 0, "none": 0, "differing": 0}
    for _ in range(3000):
        a0 = FMultiset(rng.choice(_POOL) for _ in range(rng.randint(0, 3)))
        a1 = FMultiset(rng.choice(_POOL) for _ in range(rng.randint(0, 3)))
        kind = rng.choice(list(kinds))
        if kind == "shared":
            c0 = c1 = rng.choice(_POOL)
        elif kind == "none":
            c0 = c1 = None
        else:
            c0, c1 = rng.choice(_POOL + [None]), rng.choice(_POOL + [None])
            if c0 is c1:
                continue
        kinds[kind] += 1
        s0, s1 = Sequent(a0, c0), Sequent(a1, c1)
        assert sequent_less(w, s0, s1) == multiset_less(w, _merged(s0), _merged(s1)), (s0, s1)
    assert min(kinds.values()) > 500


def test_check_instance_decrease():
    def decreases(premises, conclusion):
        return all(sequent_less(DYCKHOFF, pr, parse_sequent(conclusion)) for pr in premises)

    # an R_K instance
    assert decreases([parse_sequent("p, q => p & q")], "[]p, []q => [](p & q)")
    # the G3ip left-implication instance that repeats its principal formula
    assert not decreases([parse_sequent("p -> q => p")], "p -> q => r")
    # axioms are vacuously decreasing
    assert decreases([], "p => p")


def test_schema_termination_g4ip_rules():
    for rule in g4ip().rules:
        assert check_schema_termination(DYCKHOFF, rule).is_terminating, rule.name


@pytest.mark.parametrize("name", ["R_K", "R_D", "R_T", "R_X"])
def test_schema_termination_modal_positive(name):
    rule = builtin_modal_rules()[name]
    assert check_schema_termination(DYCKHOFF, rule).is_terminating


@pytest.mark.parametrize("name", ["R_K4", "R_GL", "R_SL"])
def test_schema_termination_modal_negative(name):
    rule = builtin_modal_rules()[name]
    verdict = check_schema_termination(DYCKHOFF, rule)
    assert verdict.is_counterexample
    # the reported instantiation must genuinely fail the decrease
    premises = instantiate_premises(rule, verdict.instantiation)
    conclusion = instantiate_pattern(rule.conclusion, verdict.instantiation)
    assert not all(sequent_less(DYCKHOFF, pr, conclusion) for pr in premises)
    assert "COUNTEREXAMPLE" in verdict.text()


def test_schema_termination_g3_left_implication():
    verdict = check_schema_termination(DYCKHOFF, g3ip().rule("LImp"))
    assert verdict.is_counterexample


def test_r_gl_known_counterexample():
    # P empty, G={p}, phi=q: {p, []p, []q, q} is not below {[]p, []q}
    assert not multiset_less(DYCKHOFF, ms("p", "[]p", "[]q", "q"), ms("[]p", "[]q"))
    assert not multiset_less_bruteforce(DYCKHOFF, ms("p", "[]p", "[]q", "q"), ms("[]p", "[]q"))


def test_terminating_schemas_decrease_on_random_instances():
    # soundness of the symbolic certificate: sample instantiations of every
    # Terminating schema and check the instance-level decrease
    from seqprove.orders import _sample_instantiation
    from seqprove.calculus import schema_metavars
    rules = list(g4ip().rules) + [builtin_modal_rules()[n] for n in ("R_K", "R_D", "R_T", "R_X")]
    cfg = SamplingConfig()
    rng = random.Random(123)
    for rule in rules:
        if not rule.premises:
            continue
        assert check_schema_termination(DYCKHOFF, rule).is_terminating
        sorts = schema_metavars(rule)
        for _ in range(150):
            inst = _sample_instantiation(sorts, rng, cfg)
            premises = instantiate_premises(rule, inst)
            conclusion = instantiate_pattern(rule.conclusion, inst)
            assert all(sequent_less(DYCKHOFF, pr, conclusion) for pr in premises), \
                f"{rule.name} at {format_instantiation(inst)}"



# --- the symbolic certificate on random schemas ------------------------------

_LEAVES = (FVar("phi"), FVar("psi"), FVar("gamma"), AVar("p"), AVar("q"), Bot())
_CONTEXTS = (CtxVar("G"), CtxVar("P"), BoxedCtx("G"), BoxedCtx("G", 1))
_CERT_WEIGHTS = (DYCKHOFF, WeightFunction("flat", and_inc=1),
                 WeightFunction("skewed", and_inc=1, or_inc=3, imp_inc=2, box_inc=3))


def _random_template(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(_LEAVES)
    op = rng.choice((And, Or, Imp, "box"))
    if op == "box":
        return Modal(0, _random_template(rng, depth - 1))
    return op(_random_template(rng, depth - 1), _random_template(rng, depth - 1))


def _subtemplates(t):
    yield t
    if isinstance(t, Modal):
        yield from _subtemplates(t.body)
    elif isinstance(t, (And, Or, Imp)):
        yield from _subtemplates(t.left)
        yield from _subtemplates(t.right)


def _random_schema(rng):
    """A one-premise schema whose premise keeps some conclusion items and adds
    contexts, subtemplates of conclusion templates, or fresh templates."""
    concl_items = [rng.choice(_CONTEXTS) for _ in range(rng.randint(0, 3))]
    concl_items += [_random_template(rng, 2) for _ in range(rng.randint(0, 3))]
    concl_succ = rng.choice((None, SuccVar("D"), _random_template(rng, 2)))
    subs = [s for t in (*concl_items, concl_succ)
            if t is not None and not isinstance(t, (CtxVar, BoxedCtx, SuccVar))
            for s in _subtemplates(t)]
    kept = [it for it in concl_items if rng.random() < 0.6]
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.3:
            kept.append(rng.choice(_CONTEXTS))
        elif roll < 0.8 and subs:
            kept.append(rng.choice(subs))
        else:
            kept.append(_random_template(rng, 1))
    rng.shuffle(kept)
    prem_succ = rng.choice((None, SuccVar("D"), concl_succ, rng.choice(subs or [None])))
    return RuleSchema("X", (Pattern(tuple(kept), prem_succ),),
                      Pattern(tuple(concl_items), concl_succ), LEFT)


def _certified(w, rule):
    # with no samples to draw, only the symbolic certificate answers Terminating
    return check_schema_termination(w, rule, SamplingConfig(samples=0)).is_terminating


# sha256 over the certified bit of 6,000 seeded random schemas under each of
# _CERT_WEIGHTS, recorded with the search over cancellation plans
CERTIFICATE_BITS = "26c6d7efd3e4f47728e7062c8474f698258b8e9482b7d770678dceda7abaf5e4"


def test_certificate_verdicts_are_pinned():
    rng = random.Random(2020)
    bits = []
    for _ in range(6000):
        rule = _random_schema(rng)
        bits.extend("1" if _certified(w, rule) else "0" for w in _CERT_WEIGHTS)
    # a pin over all-0 or all-1 bits would show nothing
    assert 0.1 < bits.count("1") / len(bits) < 0.9
    assert hashlib.sha256("".join(bits).encode()).hexdigest() == CERTIFICATE_BITS


def test_certified_random_schemas_decrease():
    # soundness: every instance of a certified, well-formed schema decreases
    from seqprove.orders import _sample_instantiation
    rng = random.Random(2021)
    cfg = SamplingConfig()
    checked = 0
    for _ in range(3000):
        rule = _random_schema(rng)
        if schema_problems(rule):
            continue
        for w in _CERT_WEIGHTS:
            if not _certified(w, rule):
                continue
            checked += 1
            for _ in range(20):
                inst = _sample_instantiation(rule.metavars, rng, cfg)
                premise, = instantiate_premises(rule, inst)
                conclusion = instantiate_pattern(rule.conclusion, inst)
                assert sequent_less(w, premise, conclusion), \
                    f"{w.name}: {rule} at {format_instantiation(inst)}"
    assert checked > 500
