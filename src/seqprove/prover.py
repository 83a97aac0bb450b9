"""Backward proof search, derivation objects, and independent proof checking.

One search kernel, ``_search``, serves every entry point; only its bound
differs.  ``prove_g4`` searches a terminating (G4-style) calculus: every
applied rule instance must decrease the Dyckhoff sequent order, which makes
the search space finite, so it needs no loop check and always answers
Provable or Unprovable.  ``prove_g3`` searches a G3-style calculus under a
budget with a per-branch loop check (the antecedent's support set plus the
succedent must not repeat along a branch) and can answer Unknown.
``find_strict_sensible`` is the loop-checked search restricted at irreducible
sequents to sensible, strict roots.

``prove_g4`` hands the search a refuter (``refute.refuter``) built from
its goal's truth tables, and the search tries it on every node it enters,
the root included, before any rule: a refuted node fails.  The refuter
reads each box as its body and looks for a classical valuation that makes
the antecedent true and the succedent false, a one-world countermodel,
which ``holds`` checks before the node fails.  Such a node is unprovable,
so it fails like any other and is memoized; a result depends only on the
sequent, so no verdict or derivation changes, and only failed subtrees
shrink.  ``prove_g4`` refutes only in a calculus whose rules all carry the
Dyckhoff certificate and are G3ip or G4ip rules, ``R_K``, ``R_D``, ``R_T``,
``R_X`` or a rule generated from one of them (``Calculus.refutable``), so a
refutation can hide neither a termination violation nor a derivation.  A
goal beyond ``refute.ATOM_LIMIT`` atoms gets no refuter and is searched.

The strategy is the same for all: close by axioms, then commit to the first
applicable invertible rule, then branch over the remaining rule instances in
deterministic order.  The rules come from the static ``Calculus.plan``, and
at each node the search tries only those whose principal classes
(``RuleSchema.shapes``) the node's sequent offers (``offered``); the
branching rules are tested only at a node that gets that far.

Derivations serialize as nested ``{"sequent", "rule", "children"}`` dicts.
The search shares subtrees, so a derivation is a DAG; JSON writes a shared
node at each occurrence.  ``derivation_to_dict`` builds each distinct node
object's dict once, and ``derivation_from_dict`` makes one node per distinct
(sequent text, rule, children), parsing each distinct sequent text once: a
reloaded derivation is a DAG again.  ``walk`` yields every occurrence of a
shared node.  A node's sequent shares most formulas with its parent's, so
``derivation_to_dict`` passes one formula-to-text memo to ``print_sequent``
for the whole tree and ``derivation_from_dict`` one text-to-formula memo to
``parse_sequent``: each distinct formula is printed and parsed once per
derivation.  The memos are dropped when the call returns.  Indented JSON
comes from ``dumps_indented``, byte-identical to ``json.dumps(obj,
indent=k)`` but without the stdlib's pure-Python encoder.  These, ``walk``,
``height`` and ``format_derivation`` use explicit stacks, so they work on
derivations of any depth.

``check_derivation`` checks a derivation independently of the search that
made it.  A node without an instantiation, as every node read back from
JSON is, is matched exhaustively under each alternative of the bindings
that its children's conclusions force (``calculus.forced_bindings``): a
reloaded node of every builtin rule but ``R_SL`` and ``R_SL->`` costs at
most one match per distinct formula of a child, not one per sub-multiset
of its boxes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .syntax import And, Atom, Bot, Imp, Modal, Or, Sequent, parse_sequent, print_sequent
from .calculus import (
    AXIOM, EXHAUSTIVE, Calculus, forced_bindings, instantiate_counts,
    instantiate_premises, instantiate_template, is_right_modal, match_conclusion, offered,
)
from .orders import DYCKHOFF, WeightFunction, sequent_less
from .refute import holds, refuter

sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class TerminationViolation(Exception):
    """A rule instance applied by ``prove_g4`` failed to decrease the order,
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
    """Length of the longest branch; a single node counts as height 1.  Each
    distinct node object is measured once, so a shared subtree costs once."""
    done: dict = {}  # id of a node -> its height
    stack = [(d, False)]  # (node, its children are done)
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
            continue
        done[id(node)] = 1 + max((done[id(c)] for c in node.children), default=0)
    return done[id(d)]


def leftmost_length(d: Derivation) -> int:
    """Length of the leftmost branch; a single node counts as length 1."""
    n, node = 1, d
    while node.children:
        node = node.children[0]
        n += 1
    return n


def walk(d: Derivation):
    """Every node of ``d`` in preorder: a node, then its children's subtrees
    left to right."""
    stack = [d]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


# --- search ---------------------------------------------------------------------

_INF = float("inf")
_DIRTY = 1  # budget was hit somewhere in the failed exploration
_TAINT = 2  # a pruned branch passed through a user-provenance modal rule

_NO_RESTRICT = 0
_AX_OR_RIGHT_MODAL = 1

_UNSEEN = object()  # memo lookup default: the sequent was not searched yet


def _loop_key(s: Sequent):
    return frozenset(s.antecedent.distinct()), s.succedent


def is_irreducible(s: Sequent) -> bool:
    """No conjunction, disjunction or falsum in the antecedent, and no atom p
    alongside an implication p -> psi; the succedent is unconstrained."""
    atoms = set()
    imp_atoms = set()
    for f in s.antecedent.distinct():
        if isinstance(f, (And, Or, Bot)):
            return False
        if isinstance(f, Atom):
            atoms.add(f.name)
        elif isinstance(f, Imp) and isinstance(f.left, Atom):
            imp_atoms.add(f.left.name)
    return not (atoms & imp_atoms)


def _check_decrease(weight: WeightFunction, rule, premises, s: Sequent):
    for p in premises:
        if not sequent_less(weight, p, s):
            raise TerminationViolation(
                f"rule {rule.name}: premise ({print_sequent(p)}) does not come "
                f"before the conclusion ({print_sequent(s)})")


def _search(calculus: Calculus, goal: Sequent,
            weight: WeightFunction | None = None, budget: SearchBudget | None = None,
            constrained: bool = False, memoize: bool = True,
            falsify=None) -> ProofResult:
    """The backward search behind every entry point.

    With a ``weight`` every applied instance must decrease the sequent order
    (else TerminationViolation), which bounds the search: no loop check, no
    budget, always definite.  Without one, a per-branch loop check and
    ``budget`` bound it.  ``constrained`` restricts irreducible nodes to
    sensible roots, with a strict left premise under a boxed implication.
    ``falsify``, a ``refuter`` of ``goal``, fails every node, the root
    included, that it refutes and ``holds`` confirms (``_refuted``).

    ``search`` returns (derivation or None, hit, flags): ``hit`` is the
    shallowest depth whose loop-check key pruned the failed exploration, and
    ``flags`` record a budget hit or a tainted prune.  A failure is memoized
    only if it depends on neither, i.e. not on the branch's history.

    ``search`` is one frame per node with as few locals as it can have: deep
    searches stack many of them, and larger frames make CPython allocate and
    free stack chunks under the matcher's calls more often.
    """
    axioms, safe, branching = calculus.plan
    mode = calculus.matching
    max_depth, max_nodes = (budget.max_depth, budget.max_nodes) if budget else (_INF, _INF)
    memo: dict = {}  # (sequent, restriction) -> derivation, or None if it failed
    hist: dict = {}
    nodes = 0

    def search(s: Sequent, depth: int, user_on_branch: bool, restrict: int):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            return None, _INF, _DIRTY
        key = (s, restrict)
        d = memo.get(key, _UNSEEN)
        if d is not _UNSEEN:
            return d, _INF, 0
        if depth >= max_depth:
            return None, _INF, _DIRTY
        if falsify and _refuted(falsify, s):
            if memoize:
                memo[key] = None
            return None, _INF, 0
        shapes = offered(s)
        for rule in axioms:
            if rule.shapes <= shapes and (insts := match_conclusion(rule, s, mode)):
                d = Derivation(s, rule.name, insts[0])
                if memoize:
                    memo[key] = d
                return d, _INF, 0
        committed = None  # the one instance of an invertible rule, if any
        irreducible = False
        if restrict == _AX_OR_RIGHT_MODAL:
            pool = tuple(r for r in branching if is_right_modal(r))
        elif constrained and is_irreducible(s):
            # the constrained space is not known to be closed under
            # inversion, so branch over everything at irreducible nodes
            irreducible = True
            pool = safe + branching
        else:
            # invertible rules decrease the Dyckhoff order, so they cannot
            # loop: commit to the first applicable instance with no check
            pool = branching
            for rule in safe:
                if rule.shapes <= shapes and (insts := match_conclusion(rule, s, mode)):
                    pool, committed = (rule,), insts[:1]
                    break
        # loop check at branching nodes only: the support projection hides
        # multiplicity progress made by the invertible rules
        lkey = None
        if weight is None and committed is None:
            lkey = _loop_key(s)
            if lkey in hist:
                return None, hist[lkey], _TAINT if user_on_branch else 0
            hist[lkey] = depth
        hit, flags = _INF, 0
        for rule in pool:
            if not rule.shapes <= shapes:
                continue  # match_conclusion could only return []
            ub = user_on_branch or rule.provenance == "user"
            for inst in committed or match_conclusion(rule, s, mode):
                restrict = _NO_RESTRICT  # of the first premise
                if irreducible and rule.name == "LImp":
                    if isinstance(inst["phi"], Atom):
                        continue  # an insensible root is not allowed here
                    if isinstance(inst["phi"], Modal):
                        restrict = _AX_OR_RIGHT_MODAL
                premises = instantiate_premises(rule, inst)
                if weight is not None:
                    _check_decrease(weight, rule, premises, s)
                kids = []
                for p in premises:
                    d, h, fl = search(p, depth + 1, ub, restrict)
                    restrict = _NO_RESTRICT
                    if h < hit:
                        hit = h
                    flags |= fl
                    if d is None:
                        break
                    kids.append(d)
                else:
                    d = Derivation(s, rule.name, inst, tuple(kids))
                    if lkey is not None:
                        del hist[lkey]
                    if memoize:
                        memo[key] = d
                    return d, _INF, 0
        if lkey is not None:
            del hist[lkey]
        if memoize and flags == 0 and hit >= depth:
            memo[key] = None
        return None, hit, flags

    try:
        d, _, flags = search(goal, 0, False, _NO_RESTRICT)
    finally:
        del search  # it refers to itself: unbinding it frees the memo now
    if d is not None:
        return provable(d)
    if flags & _DIRTY:
        return unknown("budget-exhausted")
    if flags & _TAINT:
        return unknown("incomplete-strategy")
    return UNPROVABLE


def _refuted(falsify, s: Sequent) -> bool:
    """Whether ``falsify`` finds a classical countermodel of ``s`` that
    ``holds`` confirms."""
    model = falsify(s)
    return model is not None and not holds(model, s)


def prove_g4(calculus: Calculus, s: Sequent) -> ProofResult:
    """Backward search in a terminating calculus under the Dyckhoff order:
    always definite.  Raises TerminationViolation if an applied rule instance
    fails to decrease the sequent order.  In a ``Calculus.refutable``
    calculus every node that ``s``'s refuter refutes fails, ``s`` too."""
    return _search(calculus, s, weight=DYCKHOFF, falsify=refuter(s) if calculus.refutable else None)


def prove_g3(calculus: Calculus, s: Sequent, budget: SearchBudget = DEFAULT_BUDGET) -> ProofResult:
    """Loop-checked backward search in a G3-style calculus.  Unprovable means
    the loop-checked space was exhausted; Unknown carries the reason (budget
    exhausted, or a pruned branch that used a user-defined modal rule)."""
    return _search(calculus, s, budget=budget)


def find_strict_sensible(calculus: Calculus, s: Sequent,
                         budget: SearchBudget = DEFAULT_BUDGET) -> ProofResult:
    """Like prove_g3, restricted to derivations in which every subderivation
    with an irreducible conclusion is sensible and strict at its root."""
    if not is_irreducible(s):
        raise ValueError(f"sequent is not irreducible: {print_sequent(s)}")
    return _search(calculus, s, budget=budget, constrained=True)


# --- predicates over derivations ----------------------------------------------

def is_sensible(d: Derivation, calculus: Calculus) -> bool:
    """The root inference has no left principal formula p -> psi with p an
    atom.  A root without an instantiation is judged under the first that
    ``check_derivation`` accepts; a root that instantiates no rule is not
    sensible."""
    inst = d.instantiation if d.instantiation is not None else _fitting(calculus, d)
    rule = calculus.rule(d.rule)
    if rule is None or inst is None:
        return False
    for it in rule.templates:
        f = instantiate_template(it, inst)
        if isinstance(f, Imp) and isinstance(f.left, Atom):
            return False
    return True


def is_strict(d: Derivation, calculus: Calculus) -> bool:
    """When the root is a left-implication inference on box phi -> psi, its left
    premise must be closed by an axiom or by a right modal rule.  A root is
    judged as in ``is_sensible``; a root that instantiates no rule is not
    strict."""
    inst = d.instantiation if d.instantiation is not None else _fitting(calculus, d)
    if inst is None:
        return False
    if d.rule != "LImp" or not isinstance(inst.get("phi"), Modal):
        return True
    left_rule = calculus.rule(d.children[0].rule)
    if left_rule is None:
        return False
    return left_rule.kind == AXIOM or is_right_modal(left_rule)


def strict_sensible_throughout(d: Derivation, calculus: Calculus) -> bool:
    """Every subderivation with an irreducible conclusion is sensible and
    strict at its root.  Each distinct node object is judged once."""
    seen = set()  # ids of the nodes judged
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if is_irreducible(node.conclusion) and not (
                is_sensible(node, calculus) and is_strict(node, calculus)):
            return False
        stack.extend(node.children)
    return True


# --- checking -------------------------------------------------------------------

def check_derivation(calculus: Calculus, d: Derivation) -> bool:
    """Independent validation: every node must be a correct instance of a rule
    of the calculus (premises re-instantiated and compared as multisets) and
    leaves must be axiom instances.  A node is tried with its instantiation,
    and otherwise with every exhaustive match of its conclusion that agrees
    with the bindings its children force; each candidate is re-instantiated
    and compared, so the verdict does not trust the matcher.  The nodes are
    checked in preorder from an explicit stack, so a derivation of any depth
    gets a verdict, and each distinct node object once, since the search
    and ``derivation_from_dict`` share subtrees."""
    seen = set()  # ids of the nodes checked
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if not _is_rule_instance(calculus, node):
            return False
        stack.extend(reversed(node.children))
    return True


def _is_rule_instance(calculus: Calculus, d: Derivation) -> bool:
    """``d``'s conclusion and its children's conclusions instantiate one rule."""
    return _fitting(calculus, d) is not None


def _fitting(calculus: Calculus, d: Derivation) -> dict | None:
    """The first instantiation of ``d``'s rule under which ``d``'s conclusion
    and its children's conclusions are the rule's: ``d``'s own if it fits,
    else the first exhaustive match of the conclusion that fits; None if
    none does."""
    rule = calculus.rule(d.rule)
    if rule is None or len(d.children) != len(rule.premises):
        return None
    sequents = (d.conclusion, *(c.conclusion for c in d.children))
    patterns = (rule.conclusion, *rule.premises)

    def fits(inst: dict) -> bool:
        # compare multiplicities: no multiset or sequent is built per pattern
        try:
            for pat, s in zip(patterns, sequents):
                counts, succ = instantiate_counts(pat, inst)
                if succ != s.succedent or counts.items() != s.antecedent.pairs():
                    return False
            return True
        except RecursionError:
            raise  # a limit of this interpreter, not a verdict on the tree
        except Exception:
            return False

    if d.instantiation is not None and fits(d.instantiation):
        return d.instantiation
    return next((inst for forced in forced_bindings(rule, sequents[1:])
                 for inst in match_conclusion(rule, d.conclusion, EXHAUSTIVE, forced)
                 if fits(inst)), None)


# --- serialization ----------------------------------------------------------------

def derivation_to_dict(d: Derivation) -> dict:
    """``d`` as nested ``{"sequent", "rule", "children"}`` dicts.  Each
    distinct node object is written once: a node that ``d`` shares is one
    dict object wherever it occurs, which JSON writes out in full each time."""
    texts: dict = {}  # formula -> text, for the whole tree
    done: dict = {}  # id of a node -> its dict
    stack = [(d, False)]  # (node, its children are done)
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
            continue
        done[id(node)] = {
            "sequent": print_sequent(node.conclusion, texts),
            "rule": node.rule,
            "children": [done[id(c)] for c in node.children],
        }
    return done[id(d)]


def derivation_from_dict(obj: dict) -> Derivation:
    """The derivation that ``obj`` writes, as a DAG: nodes with the same
    sequent text, rule and (already shared) children are one object, and
    each distinct sequent text is parsed once."""
    formulas: dict = {}  # formula text -> formula, for the whole tree
    sequents: dict = {}  # sequent text -> sequent
    nodes: dict = {}  # (sequent text, rule, children) -> node
    built: dict = {}  # id of a dict -> its node
    stack = [(obj, False)]  # (dict, its children are built)
    while stack:
        o, ready = stack.pop()
        if id(o) in built:
            continue
        kids = o.get("children", ())
        if not ready:
            stack.append((o, True))
            stack.extend((c, False) for c in kids)
            continue
        text, rule = o["sequent"], o["rule"]
        key = (text, rule, tuple(built[id(c)] for c in kids))
        node = nodes.get(key)
        if node is None:
            s = sequents.get(text)
            if s is None:
                s = sequents[text] = parse_sequent(text, formulas)
            node = nodes[key] = Derivation(s, rule, None, key[2])
        built[id(o)] = node
    return built[id(obj)]


def derivation_to_json(d: Derivation, indent: int | None = None) -> str:
    obj = derivation_to_dict(d)
    return json.dumps(obj) if indent is None else dumps_indented(obj, indent)


def derivation_from_json(text: str) -> Derivation:
    return derivation_from_dict(json.loads(text))


_END = object()  # exhausted-iterator default in dumps_indented


def dumps_indented(obj, indent: int) -> str:
    """``json.dumps(obj, indent=indent)``, byte for byte, for dicts with str
    keys, lists, str, int, bool and None, nested without cycles.

    With an indent the stdlib runs its pure-Python encoder, one generator per
    nesting level and chunk; this writes from an explicit stack instead and
    quotes strings with the C ``encode_basestring_ascii`` that ``json.dumps``
    uses.  Without an indent ``json.dumps`` is C throughout and needs no help.
    """
    step = " " * indent
    out = []
    stack = []  # (items of an open container, is a dict, its closing line)
    nl = "\n"
    value, first = obj, False
    while True:
        if isinstance(value, str):
            out.append(_quote(value))
        elif value is None:
            out.append("null")
        elif value is True:
            out.append("true")
        elif value is False:
            out.append("false")
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        elif isinstance(value, (dict, list)):
            is_dict = isinstance(value, dict)
            if not value:
                out.append("{}" if is_dict else "[]")
            else:
                close = nl + ("}" if is_dict else "]")
                nl += step
                out.append(("{" if is_dict else "[") + nl)
                stack.append((iter(value.items() if is_dict else value), is_dict, close))
                first = True
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        while stack:
            items, is_dict, close = stack[-1]
            item = next(items, _END)
            if item is _END:
                stack.pop()
                nl = close[:-1]
                out.append(close)
                continue
            if not first:
                out.append("," + nl)
            first = False
            if is_dict:
                key, value = item
                out.append(_quote(key) + ": ")  # TypeError unless a str
            else:
                value = item
            break
        else:
            return "".join(out)


def format_derivation(d: Derivation, depth: int = 0) -> str:
    """ASCII proof tree, conclusion first."""
    texts: dict = {}
    lines = []
    stack = [(d, depth)]
    while stack:
        node, k = stack.pop()
        lines.append("  " * k + f"{print_sequent(node.conclusion, texts)}   [{node.rule}]")
        stack.extend((c, k + 1) for c in reversed(node.children))
    return "\n".join(lines)
