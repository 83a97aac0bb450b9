"""Weight functions, the multiset and sequent orders, and termination checking.

The multiset order is the Dershowitz–Manna construction: a multiset gets
smaller when one or more of its formulas are replaced by zero or more formulas
of strictly lower weight.  A rule instance is terminating when every premise
is below the conclusion in the induced sequent order; a rule schema is
terminating when that holds for all instantiations.  That is certified here
premise by premise: cancel the items the premise and the conclusion share,
then check that what is left of the conclusion dominates what is left of the
premise (``_premise_certified``).  The certificate is sound, never wrongly
Terminating, but conservative on contexts: ``premises: G, G => phi ;
conclusion: P, box G => box phi`` decreases on every instance yet stays
Unknown, since one ``box G`` only pays for one ``G``.  Seeded random
instantiation looks for counterexamples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .syntax import And, Atom, Bot, FMultiset, Formula, Imp, Modal, Or, Sequent, print_sequent
from .calculus import (
    AVar, BoxedCtx, Calculus, CtxVar, FVar, Pattern, RuleSchema, SuccVar,
    format_instantiation, instantiate_pattern, instantiate_premises, is_template,
)


class WeightFunction:
    """Weights on formulas: atoms and falsum weigh 1, and a compound weighs the
    sum of its children's weights plus a per-connective increment >= 1.  The
    weight of a template is then a linear polynomial in the weights of its
    metavariables, which is what makes symbolic schema checking possible.

    The weight adds up over connectives, so it is the dot product of the
    formula's connective counts, fixed when the formula was interned, with
    the increments: O(1) at any depth, and nothing to cache."""

    def __init__(self, name: str, and_inc: int = 2, or_inc: int = 1,
                 imp_inc: int = 1, box_inc: int = 1):
        for label, inc in (("and", and_inc), ("or", or_inc), ("imp", imp_inc), ("box", box_inc)):
            if inc < 1:
                raise ValueError(f"{label} increment must be >= 1, got {inc}")
        self.name = name
        self.and_inc = and_inc
        self.or_inc = or_inc
        self.imp_inc = imp_inc
        self.box_inc = box_inc

    def weight(self, f: Formula) -> int:
        falsums, atoms, ands, ors, imps, boxes = f._counts
        return (atoms + falsums + ands * self.and_inc + ors * self.or_inc
                + imps * self.imp_inc + boxes * self.box_inc)


DYCKHOFF = WeightFunction("dyckhoff", and_inc=2, or_inc=1, imp_inc=1, box_inc=1)


def multiset_less(w: WeightFunction, delta: FMultiset, gamma: FMultiset) -> bool:
    """True iff delta is gamma with one or more formulas replaced by zero or
    more formulas of strictly lower weight.  Decided from the multiplicities
    alone: everything delta has more of must sit below the heaviest formula
    gamma has more of.  No intermediate multiset is built."""
    lost = [f for f, n in gamma.pairs() if n > delta.count(f)]
    if not lost:
        return False
    gained = [f for f, n in delta.pairs() if n > gamma.count(f)]
    if not gained:
        return True
    top = max(w.weight(f) for f in lost)
    return all(w.weight(f) < top for f in gained)


def _sequent_multiset(s: Sequent) -> FMultiset:
    if s.succedent is None:
        return s.antecedent
    return s.antecedent.add(s.succedent)


def sequent_less(w: WeightFunction, s0: Sequent, s1: Sequent) -> bool:
    """Order on sequents: compare antecedent-plus-succedent multisets.  A
    succedent both sequents share (the same formula, or both empty) adds the
    same to both sides, which changes neither multiset difference, so then the
    antecedents are compared without merging."""
    if s0.succedent is s1.succedent:
        return multiset_less(w, s0.antecedent, s1.antecedent)
    return multiset_less(w, _sequent_multiset(s0), _sequent_multiset(s1))


# --- schema-level termination ------------------------------------------------

@dataclass(frozen=True)
class SamplingConfig:
    samples: int = 400
    max_size: int = 3
    atoms: int = 2
    seed: int = 0


_MAX_CONTEXT = 2  # the most formulas a sampled context holds


@dataclass(frozen=True)
class TerminationVerdict:
    status: str  # "terminating" | "counterexample" | "unknown"
    instantiation: dict | None = None
    premise_index: int | None = None
    premise: Sequent | None = None
    conclusion: Sequent | None = None

    @property
    def is_terminating(self) -> bool:
        return self.status == "terminating"

    @property
    def is_counterexample(self) -> bool:
        return self.status == "counterexample"

    def text(self) -> str:
        if self.status == "terminating":
            return "TERMINATING"
        if self.status == "counterexample":
            return (f"COUNTEREXAMPLE {format_instantiation(self.instantiation)} "
                    f"premise {self.premise_index + 1} ({print_sequent(self.premise)}) "
                    f"!< ({print_sequent(self.conclusion)})")
        return "UNKNOWN"


_TERMINATING = TerminationVerdict("terminating")  # shared: a verdict is frozen


def _items(pattern: Pattern) -> list:
    """The items of a pattern and its succedent, a succedent metavariable
    counting as a plain context of the same name."""
    items = list(pattern.items)
    if isinstance(pattern.succedent, SuccVar):
        items.append(CtxVar(pattern.succedent.name))
    elif pattern.succedent is not None:
        items.append(pattern.succedent)
    return items


def _wpoly(t, w: WeightFunction):
    """Weight of a template as a linear polynomial over formula-metavariable
    weights: (coefficients, constant).  Atom metavariables weigh exactly 1."""
    if isinstance(t, FVar):
        return {t.name: 1}, 0
    if isinstance(t, (AVar, Atom, Bot)):
        return {}, 1
    if isinstance(t, Modal):
        coeffs, const = _wpoly(t.body, w)
        return coeffs, const + w.box_inc
    inc = {And: w.and_inc, Or: w.or_inc, Imp: w.imp_inc}[type(t)]
    lc, lk = _wpoly(t.left, w)
    rc, rk = _wpoly(t.right, w)
    coeffs = dict(lc)
    for name, c in rc.items():
        coeffs[name] = coeffs.get(name, 0) + c
    return coeffs, lk + rk + inc


def _below(low, high) -> bool:
    """True when weight polynomial ``low`` is below ``high`` under every
    instantiation: compare them coefficient-wise (every metavariable weight
    is at least 1)."""
    (c1, k1), (c2, k2) = low, high
    total = k2 - k1  # value of the difference at the all-ones point
    for name in c1.keys() | c2.keys():
        d = c2.get(name, 0) - c1.get(name, 0)
        if d < 0:
            return False
        total += d
    # nonnegative coefficients make the difference monotone, so the all-ones
    # value is its minimum over weights >= 1
    return total >= 1


def _premise_certified(prem: Pattern, concl: Pattern, w: WeightFunction) -> bool:
    """Cancel identical items, which the multiset order ignores; then every
    premise item left must be replaced by a conclusion item left: a template
    by a template it is symbolically below, a plain context ``G`` by a
    distinct ``box G`` (stripping a box lowers every weight).  At least one
    conclusion template must be left, so that the replaced part is nonempty
    under every instantiation, empty contexts included."""
    left = _items(concl)
    extra = []
    for item in _items(prem):
        if item in left:
            left.remove(item)
        else:
            extra.append(item)
    tops = [_wpoly(t, w) for t in left if is_template(t)]
    if not tops:
        return False
    for item in extra:
        if isinstance(item, CtxVar):
            boxed = [b for b in left if isinstance(b, BoxedCtx) and b.name == item.name]
            if not boxed:
                return False
            left.remove(boxed[0])
        elif isinstance(item, BoxedCtx):
            return False
        else:
            low = _wpoly(item, w)
            if not any(_below(low, top) for top in tops):
                return False
    return True


_SAMPLE_ATOMS = ("p", "q", "r", "s", "t", "u", "v", "w")


def _random_formula(rng: random.Random, size: int, n_atoms: int) -> Formula:
    if size <= 1:
        if rng.random() < 0.1:
            return Bot()
        return Atom(_SAMPLE_ATOMS[rng.randrange(n_atoms)])
    ops = ["box"] + (["and", "or", "imp"] if size >= 3 else [])
    op = rng.choice(ops)
    if op == "box":
        return Modal(0, _random_formula(rng, size - 1, n_atoms))
    k = rng.randint(1, size - 2)
    left = _random_formula(rng, k, n_atoms)
    right = _random_formula(rng, size - 1 - k, n_atoms)
    return {"and": And, "or": Or, "imp": Imp}[op](left, right)


def _sample_instantiation(sorts: dict, rng: random.Random, cfg: SamplingConfig) -> dict:
    inst: dict = {}
    for name in sorted(sorts):
        sort = sorts[name]
        if sort == "formula":
            inst[name] = _random_formula(rng, rng.randint(1, cfg.max_size), cfg.atoms)
        elif sort == "atom":
            inst[name] = Atom(_SAMPLE_ATOMS[rng.randrange(cfg.atoms)])
        elif sort == "context":
            k = rng.randint(0, _MAX_CONTEXT)
            inst[name] = FMultiset(
                _random_formula(rng, rng.randint(1, cfg.max_size), cfg.atoms) for _ in range(k))
        else:  # succedent
            if rng.random() < 1 / 3:
                inst[name] = None
            else:
                inst[name] = _random_formula(rng, rng.randint(1, cfg.max_size), cfg.atoms)
    return inst


def certified(w: WeightFunction, rule: RuleSchema) -> bool:
    """Whether ``_premise_certified`` certifies every premise of ``rule``
    below its conclusion under ``w``.  Under ``DYCKHOFF`` read the bit the
    rule keeps, ``rule.certified``, instead."""
    return all(_premise_certified(p, rule.conclusion, w) for p in rule.premises)


def check_schema_termination(w: WeightFunction, rule: RuleSchema,
                             cfg: SamplingConfig | None = None) -> TerminationVerdict:
    """Terminating only when the symbolic criterion certifies the decrease for
    all instantiations (under ``DYCKHOFF``, the rule's kept bit); otherwise
    hunt for a concrete counterexample with seeded random instantiations, and
    report Unknown when none shows up."""
    if rule.certified if w is DYCKHOFF else certified(w, rule):
        return _TERMINATING
    cfg = cfg or SamplingConfig()
    rng = random.Random(f"{cfg.seed}:termination:{rule.name}")
    for _ in range(cfg.samples):
        inst = _sample_instantiation(rule.metavars, rng, cfg)
        concl = instantiate_pattern(rule.conclusion, inst)
        for i, pr in enumerate(instantiate_premises(rule, inst)):
            if not sequent_less(w, pr, concl):
                return TerminationVerdict("counterexample", inst, i, pr, concl)
    return TerminationVerdict("unknown")


def termination_guard(calculus: Calculus, seed: int):
    """The check run before the G4 engine searches a calculus: each rule
    against the Dyckhoff order under ``SamplingConfig(samples=200, seed=seed)``,
    stopping at the first counterexample.  Returns the refusal that names the
    failing rule and its counterexample (None if no rule fails) and the names
    of the rules checked whose termination could not be certified."""
    cfg = None  # built for the first rule that is sampled
    uncertified = []
    for rule in calculus.rules:
        if cfg is None and not rule.certified:
            cfg = SamplingConfig(samples=200, seed=seed)
        verdict = check_schema_termination(DYCKHOFF, rule, cfg)
        if verdict.is_counterexample:
            return (f"the g4 engine requires a terminating calculus, but rule {rule.name} "
                    f"fails the Dyckhoff order: {verdict.text()}"), uncertified
        if verdict.status == "unknown":
            uncertified.append(rule.name)
    return None, uncertified
