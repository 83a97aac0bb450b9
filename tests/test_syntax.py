import copy
import hashlib
import pickle
import random
import sys

import pytest

from seqprove.calculus import BoxedCtx, CtxVar, FVar, Pattern, _box_multiset, instantiate_pattern
from seqprove.orders import DYCKHOFF, WeightFunction
from seqprove.syntax import (
    And, Atom, Bot, FMultiset, Imp, Modal, Or, ParseError, Sequent, degree,
    interpret, parse_formula, parse_sequent, print_formula, print_sequent,
    sort_key, subformulas,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_parse_basic():
    assert parse_formula("p -> p") == Imp(p, p)
    assert parse_formula("~p") == Imp(p, Bot())
    assert parse_formula("[]p & []q") == And(Modal(0, p), Modal(0, q))


def test_parse_precedence_and_associativity():
    assert parse_formula("p & q | r") == Or(And(p, q), r)
    assert parse_formula("p -> q -> r") == Imp(p, Imp(q, r))
    assert parse_formula("p | q & r") == Or(p, And(q, r))
    assert parse_formula("p & q & r") == And(And(p, q), r)
    assert parse_formula("~p -> q") == Imp(Imp(p, Bot()), q)
    assert parse_formula("[]p -> p") == Imp(Modal(0, p), p)


def test_parse_modal_indices():
    assert parse_formula("[1]p") == Modal(1, p)
    assert parse_formula("[]p") == Modal(0, p)
    assert parse_formula("[0]p") == Modal(0, p)
    assert parse_formula("[2][2]p") == Modal(2, Modal(2, p))


def test_box_index_is_decimal_digits():
    assert parse_formula("[\u0661]p") == Modal(1, p)  # ARABIC-INDIC DIGIT ONE
    with pytest.raises(ParseError) as e:
        parse_formula("[\u00b2]p")  # SUPERSCRIPT TWO: a digit, not a decimal
    assert (e.value.message, e.value.position) == ("unterminated modal prefix", 0)


def test_deep_nesting_parses_and_prints():
    text = "~" * 30000 + "p => p"
    s = parse_sequent(text)
    assert print_sequent(s) == text
    assert parse_sequent(print_sequent(s)) == s
    f = s.succedent
    for _ in range(30000):
        f = Modal(2, f)
    assert parse_formula(print_formula(f)) is f


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_formula("p -> ")
    assert e.value.position == 5
    with pytest.raises(ParseError):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_formula("(p -> q")
    with pytest.raises(ParseError):
        parse_formula("[3 p")


def test_print_examples():
    assert print_formula(Imp(p, Bot())) == "~p"
    assert print_formula(And(p, Or(q, r))) == "p & (q | r)"
    assert print_formula(Modal(1, p)) == "[1]p"
    assert print_formula(Or(And(p, q), r)) == "p & q | r"
    assert print_formula(Imp(Imp(p, q), r)) == "(p -> q) -> r"
    assert print_formula(Imp(Imp(p, Bot()), Bot())) == "~~p"


def _random_formula(rng, size):
    if size <= 1:
        return rng.choice([Bot(), p, q, r, Atom("s_1")])
    op = rng.choice(["and", "or", "imp", "box"])
    if op == "box":
        return Modal(rng.choice([0, 0, 0, 1, 2]), _random_formula(rng, size - 1))
    k = rng.randint(1, size - 1)
    left = _random_formula(rng, k)
    right = _random_formula(rng, size - k)
    return {"and": And, "or": Or, "imp": Imp}[op](left, right)


def test_print_parse_round_trip():
    rng = random.Random(2024)
    for _ in range(500):
        f = _random_formula(rng, rng.randint(1, 14))
        assert parse_formula(print_formula(f)) == f


def test_sequent_round_trip():
    rng = random.Random(99)
    for _ in range(200):
        ante = FMultiset(_random_formula(rng, rng.randint(1, 6))
                         for _ in range(rng.randint(0, 3)))
        succ = _random_formula(rng, 4) if rng.random() < 0.8 else None
        s = Sequent(ante, succ)
        assert parse_sequent(print_sequent(s)) == s


_TOKENS = ("p", "q", "s_1", "é", "false", "[]", "[1]", "[", "]", "~", "&", "|", "->",
           "(", ")", ",", "=>", "=", "-", ">", " ", "  ", "\t", "9")


def _sequent_texts(seed, n):
    """Seeded sequent texts: printed random sequents, some with a token
    inserted, deleted or swapped in, and random token strings."""
    rng = random.Random(seed)
    for _ in range(n):
        if rng.random() < 0.5:
            text = "".join(rng.choice(_TOKENS) for _ in range(rng.randint(0, 10)))
        else:
            ante = [_random_formula(rng, rng.randint(1, 5)) for _ in range(rng.randint(0, 4))]
            if ante and rng.random() < 0.3:
                ante.append(rng.choice(ante))
            succ = _random_formula(rng, 4) if rng.random() < 0.8 else None
            text = print_sequent(Sequent(FMultiset(ante), succ))
            if rng.random() < 0.3:
                text = text.replace(", ", rng.choice([",", " ,  ", ",\t"]))
            for _ in range(rng.choice([0, 0, 1, 1, 2])):
                i = rng.randint(0, len(text))
                j = min(len(text), i + rng.randint(0, 3))
                text = text[:i] + rng.choice(("",) + _TOKENS) + text[j:]
        yield text


def _parse_record(text, formulas):
    try:
        s = parse_sequent(text, formulas)
    except ParseError as e:
        return text, e.message, e.position
    return text, print_sequent(s)


# sha256 of the records of _sequent_texts(8, 20_000), recorded with the token
# parser alone (5,139 of the texts parse)
PARSE_FINGERPRINT = "bb2bb3b041063e7f389ca85da4c08967df795d07729fae043bb20d174f17a1dd"


def test_parse_sequent_is_pinned_with_and_without_a_memo():
    shared: dict = {}
    records = []
    for text in _sequent_texts(8, 20_000):
        record = _parse_record(text, None)
        assert _parse_record(text, {}) == record
        assert _parse_record(text, shared) == record
        records.append(record)
    assert hashlib.sha256(repr(records).encode()).hexdigest() == PARSE_FINGERPRINT


def test_memo_parse_falls_back_to_the_token_parser():
    memo: dict = {}
    assert parse_sequent(" p ,q=>  p & q ", memo) == parse_sequent("p, q => p & q")
    assert set(memo) == {"p", "q", "p & q"}
    for text, offset in (("p, => q", 3), ("p => q => r", 7), (", p => q", 0),
                         ("[1,2]p => q", 0), ("p -> => q", 5), ("p, q", 4)):
        with pytest.raises(ParseError) as e:
            parse_sequent(text, memo)
        assert e.value.position == offset, text


def test_sequent_text_forms():
    s = parse_sequent("p, q => r")
    assert s.antecedent.count(p) == 1 and s.succedent == r
    assert parse_sequent("p, p =>").antecedent.count(p) == 2
    assert parse_sequent("=> p") == Sequent(FMultiset(), p)
    assert parse_sequent("=>") == Sequent(FMultiset(), None)


def test_degree():
    assert degree(Bot()) == 0
    assert degree(p) == 1
    assert degree(Modal(0, And(p, q))) == 4
    assert degree(Imp(p, Bot())) == 2


def test_degree_zero_only_for_falsum():
    rng = random.Random(5)
    for _ in range(200):
        f = _random_formula(rng, rng.randint(1, 10))
        assert degree(f) >= 0
        assert (degree(f) == 0) == (f == Bot())


def test_interpret():
    assert interpret(parse_sequent("p, q => r")) == Imp(And(p, q), r)
    assert interpret(parse_sequent("p =>")) == Imp(p, Bot())
    assert interpret(parse_sequent("=> p")) == p
    assert interpret(parse_sequent("=>")) == Bot()


def test_interpret_contains_all_formulas():
    rng = random.Random(13)
    for _ in range(100):
        ante = [_random_formula(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
        succ = _random_formula(rng, 4)
        s = Sequent(FMultiset(ante), succ)
        subs = subformulas(interpret(s))
        for f in ante:
            assert f in subs
        assert succ in subs


def test_multiset_ops():
    a = FMultiset([p])
    assert a.union(a).count(p) == 2
    b = FMultiset([p, p, q])
    assert b.remove(p, 1) == FMultiset([p, q])
    assert FMultiset().count(p) == 0
    with pytest.raises(ValueError):
        a.remove(p, 2)
    with pytest.raises(ValueError):
        a.remove(q)


def test_multiset_union_commutative_associative():
    rng = random.Random(3)
    pool = [p, q, r, And(p, q), Imp(q, Bot()), Modal(0, p)]
    for _ in range(100):
        ms = [FMultiset(rng.choice(pool) for _ in range(rng.randint(0, 4)))
              for _ in range(3)]
        a, b, c = ms
        assert a.union(b) == b.union(a)
        assert a.union(b).union(c) == a.union(b.union(c))


def test_multiset_canonical_iteration():
    ms = FMultiset([Imp(p, q), p, Bot(), p])
    assert list(ms) == [Bot(), p, p, Imp(p, q)]
    assert ms.support() == (Bot(), p, Imp(p, q))


def test_every_construction_path_gives_the_same_multiset():
    # the multiset {p, []p, []p, [](q & r), []false, q -> p}, built every way
    boxed = [Modal(0, p), Modal(0, p), Modal(0, And(q, r)), Modal(0, Bot())]
    plain = [p, Imp(q, p)]
    target = FMultiset(plain + boxed)
    built = [
        FMultiset(boxed + plain),
        FMultiset([boxed[2], p, boxed[0], Imp(q, p), boxed[3], boxed[1]]),
        FMultiset(boxed).union(FMultiset(plain)),
        FMultiset(plain).union(boxed),
        FMultiset(plain).add(Modal(0, p), 2).union(boxed[2:]),
        FMultiset(plain + boxed + [r, r, Modal(0, p)]).remove(r, 2).remove(Modal(0, p)),
        FMultiset(plain + boxed + [q, Modal(0, p)]).diff(FMultiset([Modal(0, p), q, q])),
        _box_multiset(FMultiset([p, And(q, r), Bot(), p]), 0).union(plain),
        instantiate_pattern(Pattern((CtxVar("G"), BoxedCtx("H"), Modal(0, FVar("phi")))),
                            {"G": FMultiset(plain), "H": FMultiset([p, p, Bot()]),
                             "phi": And(q, r)}).antecedent,
        parse_sequent("[]false, q -> p, [](q & r), []p, p, []p =>").antecedent,
    ]
    keys = [sort_key(f) for f, _ in target.items()]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for ms in built:
        assert ms == target and not ms != target
        assert hash(ms) == hash(target)
        assert ms.items() == target.items()
        assert repr(ms) == repr(target) == "{p, q -> p, []false, []p, []p, [](q & r)}"
        assert len(ms) == 6 and list(ms) == [f for f, n in target.items() for _ in range(n)]
    assert len({*built, target}) == 1
    assert target != target.add(p) and target != target.remove(p)


def test_unordered_views_are_read_only():
    ms = FMultiset([Imp(p, q), p, Modal(0, r), p])
    pairs, distinct = ms.pairs(), ms.distinct()
    assert set(pairs) == set(ms.items())
    assert set(distinct) == set(ms.support())
    for view in (pairs, distinct):
        with pytest.raises(TypeError):
            view.mapping[q] = 1
        with pytest.raises(AttributeError):
            view.add((q, 1))
    assert ms == FMultiset([p, p, Imp(p, q), Modal(0, r)]) and q not in ms


def test_multiset_fields_cannot_be_assigned():
    ms = FMultiset([p, p, Imp(p, q)])
    key, order = hash(ms), ms.items()
    for name in ("_counts", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(ms, name, {q: 1})
        with pytest.raises(AttributeError):
            delattr(ms, name)
    assert ms == FMultiset([Imp(p, q), p, p]) and len(ms) == 3 and q not in ms
    assert hash(ms) == key and ms.items() == order
    for again in (copy.copy(ms), copy.deepcopy(ms), pickle.loads(pickle.dumps(ms))):
        assert again == ms and hash(again) == key and again.items() == order


def test_formulas_hash_by_identity():
    f = parse_formula("[](p -> q) & r")
    assert type(f).__hash__ is object.__hash__
    assert hash(f) == object.__hash__(f)


def test_sort_key_total_order():
    rng = random.Random(11)
    fs = [_random_formula(rng, rng.randint(1, 6)) for _ in range(60)]
    ordered = sorted(fs, key=sort_key)
    for a, b in zip(ordered, ordered[1:]):
        assert sort_key(a) <= sort_key(b)
    for f in fs:
        assert (sort_key(f) == sort_key(fs[0])) == (f == fs[0])


def test_deep_formulas_are_measured_without_recursion():
    n = 100_000
    negs, boxes = p, p
    for _ in range(n):
        negs, boxes = Imp(negs, Bot()), Modal(0, boxes)
    other = WeightFunction("other", and_inc=3, or_inc=4, imp_inc=5, box_inc=6)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        assert sort_key(negs) == (4, sort_key(negs.left), (0,))
        assert sort_key(boxes) == (5, 0, sort_key(boxes.body))
        assert degree(negs) == n + 1 and degree(boxes) == n + 1
        assert DYCKHOFF.weight(negs) == 2 * n + 1 and DYCKHOFF.weight(boxes) == n + 1
        assert other.weight(negs) == 6 * n + 1 and other.weight(boxes) == 6 * n + 1
        assert len(subformulas(negs)) == n + 2 and len(subformulas(boxes)) == n + 1
    finally:
        sys.setrecursionlimit(limit)


# --- hash-consing -------------------------------------------------------------

def test_equal_formulas_are_one_object():
    assert Atom("p") is Atom("p")
    assert Bot() is Bot()
    assert Modal(1, And(p, q)) is Modal(1, And(Atom("p"), Atom("q")))
    assert Imp(p, q) is not Imp(q, p)
    assert And(p, q) is not Or(p, q)
    rng = random.Random(17)
    for _ in range(200):
        text = print_formula(_random_formula(rng, rng.randint(1, 12)))
        assert parse_formula(text) is parse_formula(text)


def test_templates_are_interned():
    phi, psi = FVar("phi"), FVar("psi")
    assert And(phi, psi) is And(FVar("phi"), FVar("psi"))
    assert Imp(Modal(0, phi), psi) is Imp(Modal(0, FVar("phi")), FVar("psi"))
    assert And(phi, psi) is not And(psi, phi)
    # a template has no sort key: only formulas are ordered
    for t in (phi, And(phi, psi), Modal(0, Imp(p, phi))):
        with pytest.raises(TypeError):
            sort_key(t)


def test_copy_and_pickle_return_the_canonical_node():
    f = parse_formula("[1](p -> q) & ~(r | false)")
    template = Imp(Modal(0, FVar("phi")), FVar("psi"))
    for g in (f, p, Bot(), template):
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g


def test_formula_fields_are_immutable():
    f = And(p, q)
    with pytest.raises(AttributeError):
        f.left = r
    with pytest.raises(AttributeError):
        p.name = "q"
    with pytest.raises(AttributeError):
        Modal(0, p).index = 1
    with pytest.raises(AttributeError):
        del f.right
    assert f.left is p and p.name == "p"


def test_repr_is_the_dataclass_text():
    assert repr(And(Atom("p"), Bot())) == "And(left=Atom(name='p'), right=Bot())"
    assert repr(Modal(2, Imp(p, q))) == \
        "Modal(index=2, body=Imp(left=Atom(name='p'), right=Atom(name='q')))"


def test_deep_formula_hash_and_equality_do_not_recurse():
    f = g = p
    for _ in range(100_000):
        f = Imp(f, Bot())
        g = Imp(g, Bot())
    assert f is g
    assert hash(f) == hash(g)
    assert f == g and not f != g
    assert f in {f} and f in {g: 1}
    assert Imp(f, Bot()) != f
