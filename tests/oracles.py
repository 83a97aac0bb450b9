"""Independent oracles shared by the test modules."""

import itertools

from seqprove.calculus import (
    EXHAUSTIVE, InstantiationError, instantiate_pattern, instantiate_premises,
    match_conclusion,
)
from seqprove.syntax import FMultiset


def submultisets(gamma):
    items = gamma.items()
    for combo in itertools.product(*[range(n + 1) for _, n in items]):
        yield FMultiset(f for (f, _), k in zip(items, combo) for _ in range(k))


def multiset_less_bruteforce(w, delta, gamma):
    """The multiset order decided by exhaustive decomposition search: delta is
    (gamma - X) + Y for some nonempty X with every formula of Y strictly below
    some formula of X."""
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


def is_rule_instance_unpinned(calculus, d):
    """Whether ``d``'s conclusion and its children's conclusions instantiate
    ``d``'s rule, decided from the conclusion alone: every exhaustive match
    of it is re-instantiated and compared.  It reads neither ``d``'s
    instantiation nor any binding its children force."""
    rule = calculus.rule(d.rule)
    if rule is None or len(d.children) != len(rule.premises):
        return False
    kids = [c.conclusion for c in d.children]

    def fits(inst):
        try:
            return (instantiate_pattern(rule.conclusion, inst) == d.conclusion
                    and instantiate_premises(rule, inst) == kids)
        except InstantiationError:
            return False

    return any(fits(inst) for inst in match_conclusion(rule, d.conclusion, EXHAUSTIVE))
