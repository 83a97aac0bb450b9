"""Backward proof search, derivation objects, and independent proof checking.

Two engines live here.  ``prove_g4`` searches a terminating (G4-style)
calculus: the search space is finite because every applied rule instance is
asserted to decrease the Dyckhoff sequent order, so it always answers
Provable or Unprovable.  ``prove_g3`` searches a G3-style calculus under a
budget with a per-branch loop check (the antecedent's support set plus the
succedent must not repeat along a branch) and can answer Unknown.

Both engines share a strategy: close by axioms, then commit to the first
applicable invertible rule, then branch over the remaining rule instances in
deterministic order.  At each node they try only the rules of
``Calculus.plan`` whose principal shapes the node's sequent offers.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .syntax import And, Atom, Bot, Imp, Modal, Or, Sequent, parse_sequent, print_sequent
from .calculus import (
    AXIOM, EXHAUSTIVE, GREEDY, Calculus, RuleSchema, builtin_modal_rules,
    g3ip, g4ip, instantiate_pattern, instantiate_premises, instantiate_template,
    is_right_modal, match_conclusion, transform_right_modal,
)
from .orders import DYCKHOFF, WeightFunction, sequent_less

sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class TerminationViolation(Exception):
    """A rule instance applied by the G4 engine failed to decrease the order,
    i.e. a non-terminating calculus was passed."""


@dataclass(frozen=True, eq=False)
class Derivation:
    """Finite proof tree; children match the rule's premises in order."""

    conclusion: Sequent
    rule: str
    instantiation: dict | None
    children: tuple = ()


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 120
    max_nodes: int = 400_000

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_nodes <= 0:
            raise ValueError("budget bounds must be positive")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True, eq=False)
class ProofResult:
    status: str  # "provable" | "unprovable" | "unknown"
    derivation: Derivation | None = None
    reason: str | None = None  # "budget-exhausted" | "incomplete-strategy"

    @property
    def is_provable(self) -> bool:
        return self.status == "provable"

    @property
    def is_unprovable(self) -> bool:
        return self.status == "unprovable"

    @property
    def is_definite(self) -> bool:
        return self.status in ("provable", "unprovable")

    def text(self) -> str:
        if self.status == "provable":
            return "PROVABLE"
        if self.status == "unprovable":
            return "UNPROVABLE"
        return f"UNKNOWN ({self.reason})"


def provable(d: Derivation) -> ProofResult:
    return ProofResult("provable", derivation=d)


UNPROVABLE = ProofResult("unprovable")


def unknown(reason: str) -> ProofResult:
    return ProofResult("unknown", reason=reason)


def height(d: Derivation) -> int:
    """Length of the longest branch; a single node counts as height 1."""
    if not d.children:
        return 1
    return 1 + max(height(c) for c in d.children)


def leftmost_length(d: Derivation) -> int:
    """Length of the leftmost branch; a single node counts as length 1."""
    n, node = 1, d
    while node.children:
        node = node.children[0]
        n += 1
    return n


def walk(d: Derivation):
    yield d
    for c in d.children:
        yield from walk(c)


# --- G4 engine ----------------------------------------------------------------

def prove_g4(calculus: Calculus, s: Sequent, match_mode: str = GREEDY,
             weight: WeightFunction = DYCKHOFF) -> ProofResult:
    """Backward search in a terminating calculus: always definite.  Raises
    TerminationViolation if an applied rule instance fails to decrease the
    sequent order."""
    plan = calculus.plan
    memo: dict = {}

    def check_decrease(rule: RuleSchema, premises, concl: Sequent):
        for p in premises:
            if not sequent_less(weight, p, concl):
                raise TerminationViolation(
                    f"rule {rule.name}: premise ({print_sequent(p)}) does not come "
                    f"before the conclusion ({print_sequent(concl)})")

    def search(s: Sequent) -> Derivation | None:
        if s in memo:
            return memo[s]
        node = plan.at(s)
        for ax in node.axioms:
            insts = match_conclusion(ax, s, match_mode)
            if insts:
                d = Derivation(s, ax.name, insts[0])
                memo[s] = d
                return d
        for rule in node.safe:
            insts = match_conclusion(rule, s, match_mode)
            if not insts:
                continue
            inst = insts[0]
            premises = instantiate_premises(rule, inst)
            check_decrease(rule, premises, s)
            kids = []
            for p in premises:
                k = search(p)
                if k is None:
                    memo[s] = None
                    return None
                kids.append(k)
            d = Derivation(s, rule.name, inst, tuple(kids))
            memo[s] = d
            return d
        for rule in node.branching:
            for inst in match_conclusion(rule, s, match_mode):
                premises = instantiate_premises(rule, inst)
                check_decrease(rule, premises, s)
                kids = []
                for p in premises:
                    k = search(p)
                    if k is None:
                        kids = None
                        break
                    kids.append(k)
                if kids is not None:
                    d = Derivation(s, rule.name, inst, tuple(kids))
                    memo[s] = d
                    return d
        memo[s] = None
        return None

    d = search(s)
    del search  # it refers to itself: unbinding it frees the memo now
    return provable(d) if d is not None else UNPROVABLE


# --- G3 engine ----------------------------------------------------------------

_INF = float("inf")
_DIRTY = 1  # budget was hit somewhere in the failed exploration
_TAINT = 2  # a pruned branch passed through a user-provenance modal rule

_NO_RESTRICT = 0
_AX_OR_RIGHT_MODAL = 1


def _loop_key(s: Sequent):
    return frozenset(s.antecedent.support()), s.succedent


def is_irreducible(s: Sequent) -> bool:
    """No conjunction, disjunction or falsum in the antecedent, and no atom p
    alongside an implication p -> psi; the succedent is unconstrained."""
    atoms = set()
    imp_atoms = set()
    for f in s.antecedent.support():
        if isinstance(f, (And, Or, Bot)):
            return False
        if isinstance(f, Atom):
            atoms.add(f.name)
        elif isinstance(f, Imp) and isinstance(f.left, Atom):
            imp_atoms.add(f.left.name)
    return not (atoms & imp_atoms)


def _g3_search(calculus: Calculus, goal: Sequent, budget: SearchBudget,
               match_mode: str, constrained: bool, memoize: bool = True):
    plan = calculus.plan
    proven: dict = {}
    failed: set = set()
    state = {"nodes": 0}
    no_restrict = lambda i: _NO_RESTRICT

    def search(s: Sequent, hist: dict, depth: int, user_on_branch: bool, restrict: int):
        state["nodes"] += 1
        if state["nodes"] > budget.max_nodes:
            return None, _INF, _DIRTY
        key = (s, restrict)
        if key in proven:
            return proven[key], _INF, 0
        if key in failed:
            return None, _INF, 0
        if depth >= budget.max_depth:
            return None, _INF, _DIRTY
        d, hit, flags = expand(s, hist, depth, user_on_branch, restrict)
        if d is not None:
            if memoize:
                proven[key] = d
            return d, _INF, 0
        # a failure is history-independent only if every prune it involved
        # matched a key recorded at this node or below, and no budget was hit
        if memoize and flags == 0 and hit >= depth:
            failed.add(key)
        return None, hit, flags

    def try_rule(rule, inst, s, hist, depth, user_on_branch, child_restrict):
        premises = instantiate_premises(rule, inst)
        ub = user_on_branch or rule.provenance == "user"
        kids = []
        hit, flags = _INF, 0
        for i, p in enumerate(premises):
            d, h, fl = search(p, hist, depth + 1, ub, child_restrict(i))
            hit = min(hit, h)
            flags |= fl
            if d is None:
                return None, hit, flags
            kids.append(d)
        return Derivation(s, rule.name, inst, tuple(kids)), _INF, 0

    def expand(s, hist, depth, user_on_branch, restrict):
        node = plan.at(s)
        for ax in node.axioms:
            insts = match_conclusion(ax, s, match_mode)
            if insts:
                return Derivation(s, ax.name, insts[0]), _INF, 0
        if restrict == _AX_OR_RIGHT_MODAL:
            pool = tuple(r for r in node.branching if is_right_modal(r))
            irreducible_here = False
        else:
            irreducible_here = constrained and is_irreducible(s)
            if not irreducible_here:
                # invertible rules decrease the Dyckhoff order, so they cannot
                # loop: commit to the first applicable instance with no check
                for rule in node.safe:
                    insts = match_conclusion(rule, s, match_mode)
                    if insts:
                        return try_rule(rule, insts[0], s, hist, depth,
                                        user_on_branch, no_restrict)
                pool = node.branching
            else:
                # the constrained space is not known to be closed under
                # inversion, so branch over everything at irreducible nodes
                pool = node.safe + node.branching
        # loop check at branching nodes only: the support projection hides
        # multiplicity progress made by the invertible rules
        lkey = _loop_key(s)
        if lkey in hist:
            return None, hist[lkey], _TAINT if user_on_branch else 0
        hist[lkey] = depth
        hit, flags = _INF, 0
        try:
            for rule in pool:
                for inst in match_conclusion(rule, s, match_mode):
                    child_restrict = no_restrict
                    if irreducible_here and rule.name == "LImp":
                        principal_left = inst["phi"]
                        if isinstance(principal_left, Atom):
                            continue  # an insensible root is not allowed here
                        if isinstance(principal_left, Modal):
                            child_restrict = (
                                lambda i: _AX_OR_RIGHT_MODAL if i == 0 else _NO_RESTRICT)
                    d, h, fl = try_rule(rule, inst, s, hist, depth, user_on_branch,
                                        child_restrict)
                    if d is not None:
                        return d, _INF, 0
                    hit, flags = min(hit, h), flags | fl
        finally:
            del hist[lkey]
        return None, hit, flags

    d, _, flags = search(goal, {}, 0, False, _NO_RESTRICT)
    del search  # search, expand and try_rule call each other; free them now
    if d is not None:
        return provable(d)
    if flags & _DIRTY:
        return unknown("budget-exhausted")
    if flags & _TAINT:
        return unknown("incomplete-strategy")
    return UNPROVABLE


def prove_g3(calculus: Calculus, s: Sequent, budget: SearchBudget = DEFAULT_BUDGET,
             match_mode: str = GREEDY) -> ProofResult:
    """Loop-checked backward search in a G3-style calculus.  Unprovable means
    the loop-checked space was exhausted; Unknown carries the reason (budget
    exhausted, or a pruned branch that used a user-defined modal rule)."""
    return _g3_search(calculus, s, budget, match_mode, constrained=False)


def find_strict_sensible(calculus: Calculus, s: Sequent,
                         budget: SearchBudget = DEFAULT_BUDGET,
                         match_mode: str = GREEDY) -> ProofResult:
    """Like prove_g3, restricted to derivations in which every subderivation
    with an irreducible conclusion is sensible and strict at its root."""
    if not is_irreducible(s):
        raise ValueError(f"sequent is not irreducible: {print_sequent(s)}")
    return _g3_search(calculus, s, budget, match_mode, constrained=True)


# --- predicates over derivations ----------------------------------------------

def _schema_registry() -> dict:
    reg = {r.name: r for r in g3ip().rules}
    reg.update({r.name: r for r in g4ip().rules})
    for r in builtin_modal_rules().values():
        reg[r.name] = r
        if is_right_modal(r):
            gen = transform_right_modal(r)
            reg[gen.name] = gen
    return reg


_REGISTRY: dict | None = None


def _lookup_rule(name: str, calculus: Calculus | None) -> RuleSchema | None:
    global _REGISTRY
    if calculus is not None:
        r = calculus.rule(name)
        if r is not None:
            return r
    if _REGISTRY is None:
        _REGISTRY = _schema_registry()
    return _REGISTRY.get(name)


def _principal_formulas(d: Derivation, calculus: Calculus | None):
    """Instantiated antecedent templates of the root rule's conclusion."""
    rule = _lookup_rule(d.rule, calculus)
    if rule is None or d.instantiation is None:
        return []
    return [instantiate_template(it, d.instantiation) for it in rule.templates]


def is_sensible(d: Derivation, calculus: Calculus | None = None) -> bool:
    """The root inference has no left principal formula p -> psi with p an atom."""
    for f in _principal_formulas(d, calculus):
        if isinstance(f, Imp) and isinstance(f.left, Atom):
            return False
    return True


def is_strict(d: Derivation, calculus: Calculus | None = None) -> bool:
    """When the root is a left-implication inference on box phi -> psi, its left
    premise must be closed by an axiom or by a right modal rule."""
    if d.rule != "LImp" or d.instantiation is None:
        return True
    principal_left = d.instantiation.get("phi")
    if not isinstance(principal_left, Modal):
        return True
    left = d.children[0]
    left_rule = _lookup_rule(left.rule, calculus)
    if left_rule is None:
        return False
    return left_rule.kind == AXIOM or is_right_modal(left_rule)


def strict_sensible_throughout(d: Derivation, calculus: Calculus | None = None) -> bool:
    """Every subderivation with an irreducible conclusion is sensible and
    strict at its root."""
    return all(is_sensible(sub, calculus) and is_strict(sub, calculus)
               for sub in walk(d) if is_irreducible(sub.conclusion))


# --- checking -------------------------------------------------------------------

def check_derivation(calculus: Calculus, d: Derivation) -> bool:
    """Independent validation: every node must be a correct instance of a rule
    of the calculus (premises re-instantiated and compared as multisets) and
    leaves must be axiom instances."""
    rule = calculus.rule(d.rule)
    if rule is None or len(d.children) != len(rule.premises):
        return False
    child_concls = [c.conclusion for c in d.children]

    def fits(inst: dict) -> bool:
        try:
            if instantiate_pattern(rule.conclusion, inst) != d.conclusion:
                return False
            return instantiate_premises(rule, inst) == child_concls
        except Exception:
            return False

    ok = d.instantiation is not None and fits(d.instantiation)
    if not ok:
        ok = any(fits(inst) for inst in match_conclusion(rule, d.conclusion, EXHAUSTIVE))
    if not ok:
        return False
    return all(check_derivation(calculus, c) for c in d.children)


# --- serialization ----------------------------------------------------------------

def derivation_to_dict(d: Derivation) -> dict:
    return {
        "sequent": print_sequent(d.conclusion),
        "rule": d.rule,
        "children": [derivation_to_dict(c) for c in d.children],
    }


def derivation_from_dict(obj: dict) -> Derivation:
    children = tuple(derivation_from_dict(c) for c in obj.get("children", ()))
    return Derivation(parse_sequent(obj["sequent"]), obj["rule"], None, children)


def derivation_to_json(d: Derivation, indent: int | None = None) -> str:
    return json.dumps(derivation_to_dict(d), indent=indent)


def derivation_from_json(text: str) -> Derivation:
    return derivation_from_dict(json.loads(text))


def format_derivation(d: Derivation, depth: int = 0) -> str:
    """ASCII proof tree, conclusion first."""
    lines = ["  " * depth + f"{print_sequent(d.conclusion)}   [{d.rule}]"]
    for c in d.children:
        lines.append(format_derivation(c, depth + 1))
    return "\n".join(lines)
