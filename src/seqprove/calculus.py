"""Rule schemas, the builtin G3/G4 calculi and modal rule library, the
right-modal-to-implication transformation, calculus assembly, and schema
matching against concrete sequents.

A rule schema is a list of premise patterns and one conclusion pattern.  A
pattern is a sequent-shaped template: its antecedent items are context
metavariables (``G``), boxed context metavariables (``box G``) or formula
templates over formula/atom metavariables, and its succedent is empty, a
succedent metavariable, or a formula template.

Each schema is compiled when it is built: its conclusion split into templates
and contexts, the templates into match stages, its metavariables, the
principal classes its conclusion requires (``shapes``), and the metavariables
its premises pin for the proof checker.  ``Calculus.plan`` orders the rules
for search once; at a node the search tries only the rules whose ``shapes``
the node's sequent ``offered``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .syntax import (
    EMPTY, And, Atom, Bot, FMultiset, Formula, Imp, Modal, Or, Sequent, _from_counts,
    print_formula, sort_key,
)

AXIOM = "axiom"
LEFT = "left"
RIGHT = "right"
RIGHT_MODAL = "right-modal"
OTHER_MODAL = "other-modal"

GREEDY = "greedy"
EXHAUSTIVE = "exhaustive"

# the share a conclusion context takes in a greedy match (``_shares``)
ALL, NONE, EVERY = "all", "none", "every"


class InstantiationError(Exception):
    """A metavariable needed for instantiation is unbound."""


@dataclass(frozen=True)
class DslValidationError:
    line: int
    rule: str | None
    message: str

    def __str__(self) -> str:
        where = f"rule {self.rule}" if self.rule else "input"
        line = f"line {self.line}: " if self.line else ""  # 0: not read from text
        return f"{line}{where}: {self.message}"


class InvalidRulesError(Exception):
    """Raised by calculus assembly when a schema is malformed."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(str(p) for p in self.problems))


# --- schema syntax ----------------------------------------------------------

@dataclass(frozen=True)
class FVar:
    """Formula metavariable."""
    name: str


@dataclass(frozen=True)
class AVar:
    """Atom metavariable (instantiates to atoms only)."""
    name: str


@dataclass(frozen=True)
class CtxVar:
    """Context metavariable: a multiset of antecedent formulas."""
    name: str


@dataclass(frozen=True)
class BoxedCtx:
    """Boxed context metavariable: box G stands for {box f | f in G}."""
    name: str
    index: int = 0


@dataclass(frozen=True)
class SuccVar:
    """Succedent metavariable: empty or a single formula."""
    name: str


@dataclass(frozen=True)
class Pattern:
    items: tuple = ()
    succedent: object = None  # None (empty) | SuccVar | formula template

    def is_right_modal(self) -> bool:
        """The succedent is a boxed formula metavariable."""
        return isinstance(self.succedent, Modal) and isinstance(self.succedent.body, FVar)


def _compiled():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class RuleSchema:
    """A rule schema.  The fields after ``provenance`` are compiled once, at
    construction, for matching and dispatch; they take no part in equality,
    hashing or the repr.

    ``stages`` holds the antecedent templates in the order
    ``match_conclusion`` runs them: those with a connective first, then the
    others, each in schema order, so that a bare metavariable is mostly
    bound by the time its stage runs.  A stage is ``(template, lookup, cls,
    left)``.  A closed stage has nothing left to bind, so it is one
    membership test of ``lookup``: the template itself when it has no
    metavariables, or the name of a bare metavariable that the succedent or
    an earlier stage binds.  An open stage (``lookup`` None) tries only the
    formulas of class ``cls`` and, for a binary template, whose left side
    has class ``left`` (None accepts any class).  A compound template whose
    metavariables are all bound stays open: a lookup would build, and so
    intern, a formula the sequent may lack.

    ``forced`` lists the metavariables that a premise pins, which a proof
    checker reads off a node's children (``forced_bindings``) and passes to
    ``match_conclusion`` (see ``_forced``)."""

    name: str
    premises: tuple
    conclusion: Pattern
    kind: str
    provenance: str = "builtin"
    templates: tuple = _compiled()     # formula templates of the antecedent
    stages: tuple = _compiled()        # the templates compiled for matching
    contexts: tuple = _compiled()      # (context, greedy share) in match order: _shares
    metavars: dict = _compiled()       # schema_metavars(self)
    shapes: frozenset = _compiled()    # the classes a sequent must offer (offered)
    forced: tuple = _compiled()        # _forced(self)

    def __post_init__(self):
        items, succ = self.conclusion.items, self.conclusion.succedent
        templates = tuple(it for it in items if is_template(it))
        succ_cls = None if succ is None or isinstance(succ, SuccVar) else _class(succ)
        compiled = {
            "templates": templates,
            "stages": _stages(templates, succ),
            "contexts": _shares(self.premises, [it for it in items if not is_template(it)]),
            "metavars": schema_metavars(self),
            "shapes": frozenset(filter(None, (*map(_class, templates),
                                             succ_cls and ("=>", succ_cls)))),
        }
        for name, value in compiled.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "forced", _forced(self))

    @cached_property
    def certified(self) -> bool:
        """Whether the Dyckhoff order certifies every premise below the
        conclusion (``orders.certified``), so that no instance can fail the
        search's decrease check.  Computed on first use, since ``orders``
        imports this module, and kept with the rule."""
        from .orders import DYCKHOFF, certified
        return certified(DYCKHOFF, self)

    @cached_property
    def body_sound(self) -> bool:
        """Whether the rule is one of ``_BODY_SOUND``, which stay classically
        sound with each box read as its body.  Kept with the rule."""
        return self in _BODY_SOUND


def _stages(templates: tuple, succ) -> tuple:
    """The match stages of antecedent ``templates`` under ``succ`` (see
    ``RuleSchema``)."""
    bound = set()
    if succ is not None and not isinstance(succ, SuccVar):
        bound = {name for name, _ in template_vars(succ)}
    stages = []
    for t in sorted(templates, key=lambda t: not template_has_connective(t)):
        names = {name for name, _ in template_vars(t)}
        if not names:
            lookup = t
        elif isinstance(t, (FVar, AVar)) and t.name in bound:
            lookup = t.name
        else:
            lookup = None
        left = _class(t.left) if isinstance(t, (And, Or, Imp)) else None
        stages.append((t, lookup, _class(t), left))
        bound |= names
    return tuple(stages)


def _shares(premises: tuple, contexts: list) -> tuple:
    """The conclusion ``contexts`` as (context, share) pairs in match order,
    with the shares that make greedy matching complete up to weakening: every
    instance is dominated by a greedy one, whose premises have the same
    succedents and antecedents that hold the instance's.

    Context ``o`` covers ``cv`` if every premise keeps each form of a formula
    that ``cv`` holds at least as often when ``o`` holds it.  The plain
    context used once that covers the most others (the last on ties) takes
    ALL the rest.  A boxed context used once takes ALL the boxes of its index
    if it covers its rivals: the other plain contexts used once and boxed
    ones of its index.  Another context used once takes NONE if a rival that
    takes ALL covers it; any other context takes EVERY share, first."""
    # per premise, how often it keeps each form of a formula F that ``cv``
    # holds: (k, False) is box(k) F, with k None for F itself; for a boxed
    # ``cv``, F is box(i) f and (k, True) is box(k) f
    def keeps(cv):
        boxed = type(cv) is BoxedCtx
        return [Counter((None, False) if boxed and k == cv.index else (k, boxed)
                        for k in (getattr(it, "index", None) for it in pat.items
                                  if not is_template(it) and it.name == cv.name))
                for pat in premises]

    def covers(o, cv):
        return all(ko[form] >= n for ko, kc in zip(keep[o], keep[cv]) for form, n in kc.items())

    def rivals(cv):
        return [o for o in keep if o != cv and (type(o) is CtxVar or
                                                type(cv) is BoxedCtx and o.index == cv.index)]

    names = [cv.name for cv in contexts]
    keep = {cv: keeps(cv) for cv in contexts if names.count(cv.name) == 1}
    plains = [cv for cv in keep if type(cv) is CtxVar]
    rest = max(reversed(plains), key=lambda cv: sum(covers(cv, o) for o in plains), default=None)
    takes_all = {cv for cv in keep if cv is rest or type(cv) is BoxedCtx
                 and all(covers(cv, o) for o in rivals(cv))}
    share = {cv: ALL if cv in takes_all else
             NONE if any(o in takes_all and covers(o, cv) for o in rivals(cv)) else EVERY
             for cv in keep}
    pairs = [(cv, share.get(cv, EVERY)) for cv in contexts]
    return tuple(sorted(pairs, key=lambda p: (p[1] != EVERY, type(p[0]) is CtxVar, p[0] is rest)))


def _forced(rule: RuleSchema) -> tuple:
    """The metavariables that a premise pins, as (premise index, name, sort,
    ...): first the succedent pins, then the context pins.  Only a name that
    the conclusion uses with the same sort is pinned.

    A premise succedent that is a succedent or formula metavariable pins it
    to the child's succedent.  A premise antecedent pins a context G that an
    exhaustive match of the conclusion would enumerate (a boxed one, or a
    plain one that does not take the rest) if it holds no other context, G
    at most once plainly and at most once boxed, and templates that the
    succedent pins bind (``known``) but for at most one bare formula
    metavariable (``free``).  Its pin is ``(i, G, "context", plain, box index
    or None, known, free name or None)``, which ``forced_bindings`` solves."""
    sorts: dict = {}
    for name, sort in pattern_vars(rule.conclusion):
        sorts.setdefault(name, sort)
    pins = []
    for i, pat in enumerate(rule.premises):
        if isinstance(pat.succedent, SuccVar):
            pins.append((i, pat.succedent.name, "succedent"))
        elif isinstance(pat.succedent, FVar):
            pins.append((i, pat.succedent.name, "formula"))
    pins = [pin for pin in pins if sorts.get(pin[1]) == pin[2]]
    bound = {name for _, name, sort in pins if sort == "formula"}
    enumerated = {cv.name for cv, share in rule.contexts
                  if share != ALL or type(cv) is BoxedCtx}
    for i, pat in enumerate(rule.premises):
        names = {it.name for it in pat.items if not is_template(it)}
        name = names.pop() if len(names) == 1 else None
        if name not in enumerated or sorts.get(name) != "context":
            continue
        plain = sum(isinstance(it, CtxVar) for it in pat.items)
        boxes = [it.index for it in pat.items if isinstance(it, BoxedCtx)]
        known, free = [], []
        for t in filter(is_template, pat.items):
            (known if {n for n, _ in template_vars(t)} <= bound else free).append(t)
        if plain > 1 or len(boxes) > 1 or len(free) > 1:
            continue
        if free and not (isinstance(free[0], FVar) and sorts.get(free[0].name) == "formula"):
            continue
        pins.append((i, name, "context", plain == 1, boxes[0] if boxes else None,
                     tuple(known), free[0].name if free else None))
    return tuple(pins)


def _class(t):
    """The class of every formula that template ``t`` matches, or None."""
    cls = type(t)
    return None if cls is FVar else Atom if cls is AVar else cls


def offered(s: Sequent) -> set:
    """The principal classes sequent ``s`` offers: the class of each distinct
    antecedent formula, and its succedent's marked ``("=>", class)``.  A rule
    whose ``shapes`` are not all offered cannot match ``s``."""
    shapes = set(map(type, s.antecedent.distinct()))
    if s.succedent is not None:
        shapes.add(("=>", type(s.succedent)))
    return shapes


# Invertible rules, in the order search commits to them.
_SAFE_ORDER = ("LAnd", "LOr", "RAnd", "RImp", "LpImp", "LAndImp", "LOrImp")


@dataclass(frozen=True)
class Calculus:
    name: str
    rules: tuple
    style: str  # "G3" | "G4"
    by_name: dict = _compiled()  # name -> the first rule of that name

    def __post_init__(self):
        by_name: dict = {}
        for r in self.rules:
            by_name.setdefault(r.name, r)
        object.__setattr__(self, "by_name", by_name)

    def rule(self, name: str) -> RuleSchema | None:
        return self.by_name.get(name)

    @cached_property
    def refutable(self) -> bool:
        """Whether ``prove_g4`` may answer Unprovable from a classical
        countermodel (``refute``): every rule is certified, so the search it
        replaces could not raise a termination violation, and every rule is
        one that stays sound with each box read as its body
        (``RuleSchema.body_sound``).  Built on first use and kept with the
        calculus."""
        return all(r.body_sound and r.certified for r in self.rules)

    @cached_property
    def matching(self) -> str:
        """The mode the search matches in: GREEDY if each rule's conclusion
        has a plain context that takes the rest, which can absorb an added
        formula, so that weakening is height-preserving admissible and greedy
        matching complete (``_shares``); else EXHAUSTIVE."""
        weakening = all(any(share == ALL and type(cv) is CtxVar for cv, share in r.contexts)
                        for r in self.rules)
        return GREEDY if weakening else EXHAUSTIVE

    @cached_property
    def plan(self) -> tuple:
        """The rules in search order, built on first use and kept with the
        calculus: (axioms, invertible rules in commit order, branching rules
        in calculus order)."""
        by_name = self.by_name
        return (tuple(r for r in self.rules if not r.premises),
                tuple(by_name[n] for n in _SAFE_ORDER if n in by_name),
                tuple(r for r in self.rules if r.premises and r.name not in _SAFE_ORDER))


def is_template(item) -> bool:
    return not isinstance(item, (CtxVar, BoxedCtx))


def template_vars(t):
    """Yield (name, sort) for every metavariable in a formula template, from
    left to right."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, FVar):
            yield t.name, "formula"
        elif isinstance(t, AVar):
            yield t.name, "atom"
        elif isinstance(t, (And, Or, Imp)):
            todo.append(t.right)
            todo.append(t.left)
        elif isinstance(t, Modal):
            todo.append(t.body)


def template_has_connective(t) -> bool:
    return isinstance(t, (And, Or, Imp, Modal))


def pattern_vars(p: Pattern):
    for item in p.items:
        if isinstance(item, (CtxVar, BoxedCtx)):
            yield item.name, "context"
        else:
            yield from template_vars(item)
    if isinstance(p.succedent, SuccVar):
        yield p.succedent.name, "succedent"
    elif p.succedent is not None:
        yield from template_vars(p.succedent)


def schema_metavars(rule: RuleSchema) -> dict:
    """Map metavariable name -> sort over the whole schema (first sort wins)."""
    sorts: dict = {}
    for pat in (*rule.premises, rule.conclusion):
        for name, sort in pattern_vars(pat):
            sorts.setdefault(name, sort)
    return sorts


def schema_problems(rule: RuleSchema) -> list[str]:
    """Well-formedness diagnostics: sort consistency and premise binding."""
    problems = []
    sorts: dict = {}
    for pat in (*rule.premises, rule.conclusion):
        for name, sort in pattern_vars(pat):
            old = sorts.setdefault(name, sort)
            if old != sort:
                problems.append(f"metavariable {name} used both as {old} and as {sort}")
    concl = {name for name, _ in pattern_vars(rule.conclusion)}
    for i, pat in enumerate(rule.premises):
        for name, _ in pattern_vars(pat):
            if name not in concl:
                problems.append(f"premise {i + 1} metavariable {name} does not occur in the conclusion")
    if (rule.kind == AXIOM) != (not rule.premises):
        problems.append("axiom classification disagrees with premise count")
    # deduplicate, preserving order
    seen: set = set()
    return [p for p in problems if not (p in seen or seen.add(p))]


# --- builtin calculi --------------------------------------------------------

_G, _P, _S = CtxVar("G"), CtxVar("P"), CtxVar("S")
_D = SuccVar("D")
_phi, _psi, _gam = FVar("phi"), FVar("psi"), FVar("gamma")
_p = AVar("p")


def _pat(items, succ=None) -> Pattern:
    return Pattern(tuple(items), succ)


_AX = RuleSchema("Ax", (), _pat([_G, _p], _p), AXIOM)
_LBOT = RuleSchema("LBot", (), _pat([_G, Bot()], _D), AXIOM)
_RAND = RuleSchema("RAnd", (_pat([_G], _phi), _pat([_G], _psi)),
                   _pat([_G], And(_phi, _psi)), RIGHT)
_LAND = RuleSchema("LAnd", (_pat([_G, _phi, _psi], _D),),
                   _pat([_G, And(_phi, _psi)], _D), LEFT)
_ROR0 = RuleSchema("ROr0", (_pat([_G], _phi),), _pat([_G], Or(_phi, _psi)), RIGHT)
_ROR1 = RuleSchema("ROr1", (_pat([_G], _psi),), _pat([_G], Or(_phi, _psi)), RIGHT)
_LOR = RuleSchema("LOr", (_pat([_G, _phi], _D), _pat([_G, _psi], _D)),
                  _pat([_G, Or(_phi, _psi)], _D), LEFT)
_RIMP = RuleSchema("RImp", (_pat([_G, _phi], _psi),), _pat([_G], Imp(_phi, _psi)), RIGHT)
_LIMP = RuleSchema("LImp", (_pat([_G, Imp(_phi, _psi)], _phi), _pat([_G, _psi], _D)),
                   _pat([_G, Imp(_phi, _psi)], _D), LEFT)
_LPIMP = RuleSchema("LpImp", (_pat([_G, _p, _phi], _D),),
                    _pat([_G, _p, Imp(_p, _phi)], _D), LEFT)
_LANDIMP = RuleSchema("LAndImp", (_pat([_G, Imp(_phi, Imp(_psi, _gam))], _D),),
                      _pat([_G, Imp(And(_phi, _psi), _gam)], _D), LEFT)
_LORIMP = RuleSchema("LOrImp", (_pat([_G, Imp(_phi, _gam), Imp(_psi, _gam)], _D),),
                     _pat([_G, Imp(Or(_phi, _psi), _gam)], _D), LEFT)
_LIMPIMP = RuleSchema("LImpImp",
                      (_pat([_G, Imp(_psi, _gam)], Imp(_phi, _psi)), _pat([_gam, _G], _D)),
                      _pat([_G, Imp(Imp(_phi, _psi), _gam)], _D), LEFT)


def g3ip() -> Calculus:
    return Calculus("G3ip", (_AX, _LBOT, _RAND, _LAND, _ROR0, _ROR1, _LOR, _RIMP, _LIMP), "G3")


def g4ip() -> Calculus:
    return Calculus("G4ip", (_AX, _LBOT, _RAND, _LAND, _ROR0, _ROR1, _LOR, _RIMP,
                             _LPIMP, _LANDIMP, _LORIMP, _LIMPIMP), "G4")


_R_K = RuleSchema("R_K", (_pat([_G], _phi),),
                  _pat([_P, BoxedCtx("G")], Modal(0, _phi)), RIGHT_MODAL)
_R_D = RuleSchema("R_D", (_pat([_G, _phi], None),),
                  _pat([_P, BoxedCtx("G"), Modal(0, _phi)], _D), OTHER_MODAL)
_R_T = RuleSchema("R_T", (_pat([_G, _phi], _D),),
                  _pat([_G, Modal(0, _phi)], _D), OTHER_MODAL)
_R_K4 = RuleSchema("R_K4", (_pat([_G, BoxedCtx("G")], _phi),),
                   _pat([_P, BoxedCtx("G")], Modal(0, _phi)), RIGHT_MODAL)
_R_GL = RuleSchema("R_GL", (_pat([_G, BoxedCtx("G"), Modal(0, _phi)], _phi),),
                   _pat([_P, BoxedCtx("G")], Modal(0, _phi)), RIGHT_MODAL)
_R_SL = RuleSchema("R_SL", (_pat([_P, BoxedCtx("G"), _G, Modal(0, _phi)], _phi),),
                   _pat([BoxedCtx("S"), _P, BoxedCtx("G")], Modal(0, _phi)), RIGHT_MODAL)
_R_X = RuleSchema("R_X", (_pat([BoxedCtx("G")], _phi),),
                  _pat([_P, BoxedCtx("G")], Modal(0, _phi)), RIGHT_MODAL)


def builtin_modal_rules() -> dict:
    """The modal rule library, keyed by name."""
    return {r.name: r for r in (_R_K, _R_D, _R_T, _R_K4, _R_GL, _R_SL, _R_X)}


# --- classification and transformation --------------------------------------

def is_right_modal(rule: RuleSchema) -> bool:
    """A rule whose conclusion succedent is a boxed formula metavariable."""
    return rule.conclusion.is_right_modal()


def is_nonflat(rule: RuleSchema) -> bool:
    """Nonempty premises, and the conclusion is guaranteed to contain a
    connective or a modal operator under every instantiation."""
    if not rule.premises:
        return False
    templates = list(rule.templates)
    if rule.conclusion.succedent is not None and not isinstance(rule.conclusion.succedent, SuccVar):
        templates.append(rule.conclusion.succedent)
    return any(template_has_connective(t) for t in templates)


def _fresh(base: str, used: set) -> str:
    if base not in used:
        return base
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def transform_right_modal(rule: RuleSchema) -> RuleSchema:
    """Build the implication rule associated with a right modal rule: keep its
    premises, add the premise (C, psi => D) and conclude (C, box phi -> psi => D),
    where C is the rule's conclusion antecedent."""
    if not is_right_modal(rule):
        raise ValueError(f"{rule.name} is not a right modal rule")
    used = set(rule.metavars)
    psi = FVar(_fresh("psi", used))
    delta = SuccVar(_fresh("D", used))
    c_ante = rule.conclusion.items
    boxed = rule.conclusion.succedent
    extra = Pattern(c_ante + (psi,), delta)
    conclusion = Pattern(c_ante + (Imp(boxed, psi),), delta)
    return RuleSchema(rule.name + "->", rule.premises + (extra,), conclusion,
                      LEFT, provenance=f"generated-from:{rule.name}")


# The rules that stay classically sound when each box is read as its body,
# compared with ``==``: a rule of another name or provenance is not one of them.
_BODY_SOUND = frozenset((*g3ip().rules, *g4ip().rules, _R_K, _R_D, _R_T, _R_X,
                         transform_right_modal(_R_K), transform_right_modal(_R_X)))


class NonflatWarning(UserWarning):
    """A modal rule in the extension set is flat; the equivalence theorem's
    hypotheses are not all checkable for this calculus."""


def _validate_modal(modal) -> None:
    import warnings
    problems = []
    for r in modal:
        for msg in schema_problems(r):
            problems.append(DslValidationError(0, r.name, msg))
    if problems:
        raise InvalidRulesError(problems)
    for r in modal:
        if not is_nonflat(r):
            warnings.warn(f"modal rule {r.name} is not nonflat", NonflatWarning, stacklevel=3)


def _ext_name(base: str, modal) -> str:
    if not modal:
        return base + "ip"
    return base + "i+" + ",".join(r.name for r in modal)


def build_g3ix(modal) -> Calculus:
    """G3ip extended by the given modal rules."""
    modal = tuple(modal)
    _validate_modal(modal)
    return _assemble(_ext_name("G3", modal), g3ip().rules + modal, "G3")


def build_g4ix(modal) -> Calculus:
    """G4ip extended by the given modal rules plus the generated implication
    rule of every right modal rule (deduplicated structurally)."""
    modal = tuple(modal)
    _validate_modal(modal)
    rules = list(g4ip().rules) + list(modal)
    seen = {(r.premises, r.conclusion) for r in rules}
    for r in modal:
        if is_right_modal(r):
            gen = transform_right_modal(r)
            if (gen.premises, gen.conclusion) not in seen:
                seen.add((gen.premises, gen.conclusion))
                rules.append(gen)
    return _assemble(_ext_name("G4", modal), tuple(rules), "G4")


def _assemble(name: str, rules: tuple, style: str) -> Calculus:
    """The calculus of ``rules``.  The search and the proof checker take a
    rule by its name, so a second rule of a name is malformed."""
    seen: set = set()
    clashes = [DslValidationError(0, r.name, "the calculus already has a rule of this name")
               for r in rules if r.name in seen or seen.add(r.name)]
    if clashes:
        raise InvalidRulesError(clashes)
    return Calculus(name, rules, style)


# --- instantiation ----------------------------------------------------------

def instantiate_template(t, inst: dict) -> Formula:
    if isinstance(t, (FVar, AVar)):
        try:
            return inst[t.name]
        except KeyError:
            raise InstantiationError(f"unbound metavariable {t.name}") from None
    if isinstance(t, And):
        return And(instantiate_template(t.left, inst), instantiate_template(t.right, inst))
    if isinstance(t, Or):
        return Or(instantiate_template(t.left, inst), instantiate_template(t.right, inst))
    if isinstance(t, Imp):
        return Imp(instantiate_template(t.left, inst), instantiate_template(t.right, inst))
    if isinstance(t, Modal):
        return Modal(t.index, instantiate_template(t.body, inst))
    if isinstance(t, (Atom, Bot)):
        return t
    raise TypeError(f"not a template: {t!r}")


def _box_multiset(ms: FMultiset, index: int) -> FMultiset:
    counts = {Modal(index, f): n for f, n in ms.pairs()}
    return _from_counts(counts)


def instantiate_pattern(p: Pattern, inst: dict) -> Sequent:
    counts, succ = instantiate_counts(p, inst)
    return Sequent(_from_counts(counts), succ)


def instantiate_counts(p: Pattern, inst: dict) -> tuple:
    """(the multiplicities of ``p``'s antecedent under ``inst``, as a dict
    from formula to count, and its succedent): ``instantiate_pattern``
    without building the multiset or the sequent."""
    counts: dict = {}
    for item in p.items:
        if isinstance(item, CtxVar):
            try:
                ms = inst[item.name]
            except KeyError:
                raise InstantiationError(f"unbound metavariable {item.name}") from None
            for f, n in ms.pairs():
                counts[f] = counts.get(f, 0) + n
        elif isinstance(item, BoxedCtx):
            try:
                ms = inst[item.name]
            except KeyError:
                raise InstantiationError(f"unbound metavariable {item.name}") from None
            for f, n in ms.pairs():
                g = Modal(item.index, f)
                counts[g] = counts.get(g, 0) + n
        else:
            f = instantiate_template(item, inst)
            counts[f] = counts.get(f, 0) + 1
    if p.succedent is None:
        succ = None
    elif isinstance(p.succedent, SuccVar):
        try:
            succ = inst[p.succedent.name]
        except KeyError:
            raise InstantiationError(f"unbound metavariable {p.succedent.name}") from None
    else:
        succ = instantiate_template(p.succedent, inst)
    return counts, succ


def instantiate_premises(rule: RuleSchema, inst: dict) -> list[Sequent]:
    return [instantiate_pattern(p, inst) for p in rule.premises]


# --- matching ---------------------------------------------------------------

def match_template(t, f: Formula, inst: dict) -> dict | None:
    """Structure-directed match of a template against a formula; returns the
    extended binding or None."""
    if isinstance(t, FVar):
        bound = inst.get(t.name)
        if bound is None:
            out = dict(inst)
            out[t.name] = f
            return out
        return inst if bound == f else None
    if isinstance(t, AVar):
        if not isinstance(f, Atom):
            return None
        bound = inst.get(t.name)
        if bound is None:
            out = dict(inst)
            out[t.name] = f
            return out
        return inst if bound == f else None
    if isinstance(t, Bot):
        return inst if isinstance(f, Bot) else None
    if isinstance(t, Atom):
        return inst if t == f else None
    if isinstance(t, (And, Or, Imp)):
        if type(t) is not type(f):
            return None
        step = match_template(t.left, f.left, inst)
        if step is None:
            return None
        return match_template(t.right, f.right, step)
    if isinstance(t, Modal):
        if not isinstance(f, Modal) or t.index != f.index:
            return None
        return match_template(t.body, f.body, inst)
    raise TypeError(f"not a template: {t!r}")


def _submultisets(ms: FMultiset):
    items = tuple(ms.pairs())
    ranges = [range(n + 1) for _, n in items]
    for combo in itertools.product(*ranges):
        counts = {f: k for (f, _), k in zip(items, combo) if k > 0}
        yield _from_counts(counts)


def _binding_key(value):
    if value is None:
        return (0,)
    if isinstance(value, FMultiset):
        # the sort keys in canonical order: sorting the keys themselves skips
        # building the canonical order of a multiset that is only compared
        # here
        keys = []
        for f, n in value.pairs():
            keys += [sort_key(f)] * n
        keys.sort()
        return (1, tuple(keys))
    return (2, sort_key(value))


def _inst_key(inst: dict):
    return tuple((name, _binding_key(v)) for name, v in sorted(inst.items()))


def match_conclusion(rule: RuleSchema, s: Sequent, mode: str = GREEDY,
                     forced: dict | None = None) -> list[dict]:
    """All instantiations of the rule's conclusion that produce exactly ``s``.

    Greedy mode enumerates the principal-formula choices and gives each
    context the share the rule compiled for it (``RuleSchema.contexts``):
    all the formulas it can hold, none, or every sub-multiset.  Each instance
    of the conclusion is then dominated by a greedy one, with the same
    succedents and premise antecedents that hold the other's (``_shares``).
    Exhaustive mode enumerates every antecedent partition: every context but
    the plain one that takes the rest takes every share.  The result list is
    deterministically ordered.

    Matching runs in stages over partial matches (binding, unmatched
    antecedent): the succedent, then the rule's compiled template stages
    (``RuleSchema.stages``), then each context of the conclusion in turn.
    A closed template stage looks its one formula up in the unmatched
    antecedent; an open one hands ``match_template`` only the formulas of
    its template's class (and, for a binary template, of its left side's
    class).  The order of the template stages cannot show: they produce the
    same instances in any order, and two or more are sorted.
    For a schema without ``schema_problems`` the matcher is exact: every
    instantiation it returns re-instantiates to ``s``, and it produces each
    one once.

    ``forced`` binds some metavariables in advance (``check_derivation``
    reads them off a node's children with ``forced_bindings``); only the
    instantiations that agree with it are returned.
    """
    pat = rule.conclusion
    base: dict = {} if forced is None else dict(forced)
    if pat.succedent is None:
        if s.succedent is not None:
            return []
    elif isinstance(pat.succedent, SuccVar):
        if base.setdefault(pat.succedent.name, s.succedent) is not s.succedent:
            return []  # formulas are interned: identity is equality
    else:
        if s.succedent is None:
            return []
        matched = match_template(pat.succedent, s.succedent, base)
        if matched is None:
            return []
        base = matched

    greedy = mode == GREEDY
    partial = [(base, s.antecedent)]
    for t, lookup, cls, left in rule.stages:
        if lookup is None:
            partial = [(nxt, rest.remove(f)) for inst, rest in partial for f in rest.distinct()
                       if (cls is None or type(f) is cls and (left is None or type(f.left) is left))
                       and (nxt := match_template(t, f, inst)) is not None]
        else:
            partial = [(inst, rest.remove(f)) for inst, rest in partial
                       if (f := lookup if isinstance(lookup, Formula) else inst[lookup]) in rest
                       and (cls is None or type(f) is cls)]
    for cv, share in rule.contexts:
        boxed = type(cv) is BoxedCtx
        if not greedy and (share != ALL or boxed):
            share = EVERY  # only the plain context that takes the rest stays
        step = []
        for inst, rest in partial:
            if cv.name in inst:  # forced, or bound at an earlier use
                need = _box_multiset(inst[cv.name], cv.index) if boxed else inst[cv.name]
                if need.issubset(rest):
                    step.append((inst, rest.diff(need)))
            elif share == NONE:
                step.append(({**inst, cv.name: EMPTY}, rest))
            elif not boxed and share == ALL:
                step.append(({**inst, cv.name: rest}, EMPTY))
            else:
                pool = rest if not boxed else _from_counts(
                    {f: n for f, n in rest.pairs() if type(f) is Modal and f.index == cv.index})
                for sub in _submultisets(pool) if share == EVERY else (pool,):
                    value = _from_counts({f.body: n for f, n in sub.pairs()}) if boxed else sub
                    step.append(({**inst, cv.name: value}, rest.diff(sub)))
        partial = step

    needed = rule.metavars.keys()
    results = [inst for inst, rest in partial if not rest and inst.keys() == needed]
    if len(results) > 1:
        results.sort(key=_inst_key)
    return results


def forced_bindings(rule: RuleSchema, premises) -> list[dict]:
    """The bindings that the sequents ``premises`` of a node's children force
    on ``rule``'s metavariables (``RuleSchema.forced``), as alternatives:
    every instantiation of ``rule`` whose premises instantiate to
    ``premises`` agrees with one of them, so a checker needs to match the
    conclusion only under each (``match_conclusion``'s ``forced``).  A pin
    with a ``free`` metavariable gives one alternative per distinct formula
    of its child's antecedent, every other pin at most one; no alternative
    means that no instantiation fits."""
    found = [{}]
    for i, name, sort, *context in rule.forced:
        s = premises[i]
        step = []
        for forced in found:
            if context:
                pinned = _context_pin(s.antecedent, name, forced, *context)
            elif s.succedent is None and sort == "formula":
                pinned = ()  # a formula metavariable is never empty
            else:
                pinned = ({name: s.succedent},)
            step += [{**forced, **new} for new in pinned
                     if all(forced.get(n, v) == v for n, v in new.items())]
        found = step
    return found


def _context_pin(ms: FMultiset, name: str, forced: dict, plain: bool, index,
                 known: tuple, free) -> list[dict]:
    """The bindings of context ``name`` (and of ``free``) under which a
    premise antecedent of G (if ``plain``), box G (if ``index`` is not None),
    the ``known`` templates and the metavariable ``free`` is ``ms``."""
    for t in known:
        f = instantiate_template(t, forced)
        if f not in ms:
            return []
        ms = ms.remove(f)
    if free is None:
        g = _context_of(ms, plain, index)
        return [] if g is None else [{name: g}]
    return [{name: g, free: f} for f in ms.distinct()
            if (g := _context_of(ms.remove(f), plain, index)) is not None]


def _context_of(ms: FMultiset, plain: bool, index) -> FMultiset | None:
    """The one multiset G such that G (if ``plain``) and box G (boxes of
    ``index``, if it is not None) together make ``ms``, or None.

    For G and box G together, G is peeled off the bottom of each chain f,
    box f, box box f, ...: the copies of a formula that are not boxes of
    what G already holds are all in G, and each needs its box in ``ms``."""
    if index is None:
        return ms
    if not plain:
        if all(isinstance(f, Modal) and f.index == index for f in ms.distinct()):
            return _from_counts({f.body: n for f, n in ms.pairs()})
        return None

    def depth(f):  # the number of boxes of ``index`` f starts with
        n = 0
        while isinstance(f, Modal) and f.index == index:
            f, n = f.body, n + 1
        return n

    g: dict = {}
    owed: dict = {}  # formula of G -> the copies of its box still unseen
    for f in sorted(ms.distinct(), key=depth):
        n = ms.count(f)
        if isinstance(f, Modal) and f.index == index:
            n -= owed.pop(f.body, 0)
            if n < 0:
                return None
        if n:
            g[f] = owed[f] = n
    return None if owed else _from_counts(g)


def format_instantiation(inst: dict) -> str:
    parts = []
    for name in sorted(inst):
        v = inst[name]
        if v is None:
            text = "-"
        elif isinstance(v, FMultiset):
            text = "{" + ", ".join(print_formula(f) for f in v) + "}"
        else:
            text = print_formula(v)
        parts.append(f"{name}={text}")
    return "[" + ", ".join(parts) + "]"
