"""Classical countermodels: refuting a sequent at one world, without search.

Read each box as its body, and a sequent becomes a classical propositional
one.  Under that reading every rule of G3ip and G4ip, the modal rules
``R_K``, ``R_D``, ``R_T`` and ``R_X``, and the implication rules generated
from them stays classically sound, so whatever their calculi prove is a
classical tautology (Glivenko 1929 for the propositional part).  A valuation
that makes every antecedent formula true and the succedent false (an empty
succedent is false) is then a one-world Kripke countermodel: the sequent is
unprovable.  ``Calculus.refutable`` says which calculi this holds for.

``refuter`` finds such valuations by truth tables.  With atoms ``a0 ..
a(n-1)`` in name order, valuation ``j`` makes ``ai`` true iff bit ``i`` of
``j`` is set, and each distinct formula's table is one int whose bit ``j``
is its value under valuation ``j``.  The tables come from one root's atoms
and are kept, so a search can refute every node it enters, the root
included: the rules refuted in make no atoms, and the new formulas they
make get tables on demand.  Above ``ATOM_LIMIT`` atoms the tables get too
wide, and there is no refuter.  ``holds`` evaluates one sequent under one
valuation by a walk of its own, so that a refutation can be confirmed
without trusting the tables.  A model is the set of the names of the atoms it makes true.  The
tables are filled in order of degree, and ``holds`` walks with an explicit
stack; neither recurses or builds a formula.
"""

from __future__ import annotations

from .syntax import And, Atom, Bot, Modal, Or, Sequent, degree

# The table of a 16-atom chain p0, p0 -> p1, ... => p15 took 0.19 ms to
# build, and of a 21-atom chain 17 ms (CPython 3.11, 2-vCPU x86-64 host).
ATOM_LIMIT = 16


def refuter(root: Sequent):
    """The refuter of a search from ``root``: a function from a sequent whose
    atoms are all ``root``'s to a model (the names of its true atoms) in
    which every antecedent formula is true and the succedent false, boxes
    read as their bodies, or None if there is none.  Tables are filled on
    demand and kept for later calls.  None if ``root`` has more than
    ``ATOM_LIMIT`` atoms."""
    table: dict = {}
    formulas = list(root.antecedent.distinct())
    if root.succedent is not None:
        formulas.append(root.succedent)
    new = _untabled(table, formulas)
    atoms = sorted((f for f in new if type(f) is Atom), key=lambda a: a.name)
    if len(atoms) > ATOM_LIMIT:
        return None
    size = 1 << len(atoms)
    full = (1 << size) - 1
    for i, a in enumerate(atoms):
        # bit j set iff bit i of j is: a block of 2**i zeros, then 2**i
        # ones, doubled until it spans every valuation
        width = 1 << i
        mask = ((1 << width) - 1) << width
        width <<= 1
        while width < size:
            mask |= mask << width
            width <<= 1
        table[a] = mask
    _tabulate(table, full, new.difference(atoms))

    def fill(f) -> int:
        _tabulate(table, full, _untabled(table, (f,)))
        return table[f]

    def falsify(s: Sequent) -> frozenset | None:
        falsified = full
        for f in s.antecedent.distinct():
            falsified &= table[f] if f in table else fill(f)
        f = s.succedent
        if f is not None:
            falsified &= full ^ (table[f] if f in table else fill(f))
        if not falsified:
            return None
        j = (falsified & -falsified).bit_length() - 1
        return frozenset(a.name for i, a in enumerate(atoms) if j >> i & 1)

    return falsify


def refute(s: Sequent) -> frozenset | None:
    """The root call of ``refuter(s)``: a model of ``s``'s antecedent that
    falsifies its succedent; None if there is none, or if ``s`` has more
    than ``ATOM_LIMIT`` atoms."""
    falsify = refuter(s)
    return None if falsify is None else falsify(s)


def _untabled(table: dict, formulas) -> set:
    """The formulas of ``formulas`` without a table in ``table``, and their
    subformulas without one."""
    new, stack = set(), [f for f in formulas if f not in table]
    while stack:
        f = stack.pop()
        if f in new or f in table:
            continue
        new.add(f)
        cls = type(f)
        if cls is Modal:
            stack.append(f.body)
        elif cls is not Atom and cls is not Bot:
            stack.append(f.left)
            stack.append(f.right)
    return new


def _tabulate(table: dict, full: int, formulas: set) -> None:
    """Fill the table of every formula of ``formulas``, none an atom, whose
    subformulas each have a table or are in ``formulas``."""
    # an operator adds to the degree, so a formula comes after its parts
    for f in sorted(formulas, key=degree):
        cls = type(f)
        if cls is Bot:
            table[f] = 0
        elif cls is Modal:
            table[f] = table[f.body]
        elif cls is And:
            table[f] = table[f.left] & table[f.right]
        elif cls is Or:
            table[f] = table[f.left] | table[f.right]
        else:
            table[f] = (full ^ table[f.left]) | table[f.right]


def holds(model, s: Sequent) -> bool:
    """Whether ``s`` is true in ``model`` (the names of the true atoms),
    boxes read as their bodies: some antecedent formula is false, or the
    succedent is true."""
    value: dict = {}
    todo = [(f, False) for f in s.antecedent.distinct()]
    if s.succedent is not None:
        todo.append((s.succedent, False))
    while todo:
        f, ready = todo.pop()
        if f in value:
            continue
        if isinstance(f, Atom):
            value[f] = f.name in model
        elif isinstance(f, Bot):
            value[f] = False
        elif not ready:
            todo.append((f, True))
            todo.extend((g, False) for g in ((f.body,) if isinstance(f, Modal)
                                             else (f.left, f.right)))
        elif isinstance(f, Modal):
            value[f] = value[f.body]
        elif isinstance(f, And):
            value[f] = value[f.left] and value[f.right]
        elif isinstance(f, Or):
            value[f] = value[f.left] or value[f.right]
        else:
            value[f] = not value[f.left] or value[f.right]
    return (not all(value[f] for f in s.antecedent.distinct())
            or (s.succedent is not None and value[s.succedent]))
