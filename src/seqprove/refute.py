"""Classical countermodels: refuting a sequent at one world, without search.

Read each box as its body, and a sequent becomes a classical propositional
one.  Under that reading every rule of G3ip and G4ip, the modal rules
``R_K``, ``R_D``, ``R_T`` and ``R_X``, and the implication rules generated
from them stays classically sound, so whatever their calculi prove is a
classical tautology (Glivenko 1929 for the propositional part).  A valuation
that makes every antecedent formula true and the succedent false (an empty
succedent is false) is then a one-world Kripke countermodel: the sequent is
unprovable.  ``Calculus.refutable`` says which calculi this holds for.

``refute`` finds such a valuation by truth tables.  With atoms ``a0 .. a(n-1)``
in name order, valuation ``j`` makes ``ai`` true iff bit ``i`` of ``j`` is set,
and each distinct subformula's table is one int whose bit ``j`` is its value
under valuation ``j``.  Above ``ATOM_LIMIT`` atoms the tables get too wide,
and ``refute`` gives up.  ``holds`` evaluates one sequent under one
valuation by a walk of its own, so that a refutation can be confirmed
without trusting the tables.  A model is the set of the names of the atoms
it makes true.  ``refute`` fills the tables in order of degree, and
``holds`` walks with an explicit stack; neither recurses, keeps anything
after it returns, or builds a formula.
"""

from __future__ import annotations

from .syntax import And, Atom, Bot, Imp, Modal, Or, Sequent, degree

# The table of a 16-atom chain p0, p0 -> p1, ... => p15 took 0.19 ms to
# build, and of a 21-atom chain 17 ms (CPython 3.11, 2-vCPU x86-64 host).
ATOM_LIMIT = 16


def refute(s: Sequent) -> frozenset | None:
    """A model (the names of its true atoms) in which every antecedent
    formula of ``s`` is true and its succedent false, boxes read as their
    bodies; None if there is none, or if ``s`` has more than ``ATOM_LIMIT``
    atoms."""
    roots = list(s.antecedent.distinct())
    if s.succedent is not None:
        roots.append(s.succedent)
    atoms, seen, stack = set(), set(), roots[:]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        cls = type(f)
        if cls is Atom:
            atoms.add(f)
        elif cls is Modal:
            stack.append(f.body)
        elif cls is not Bot:
            stack.append(f.left)
            stack.append(f.right)
    if len(atoms) > ATOM_LIMIT:
        return None
    atoms = sorted(atoms, key=lambda a: a.name)
    size = 1 << len(atoms)
    full = (1 << size) - 1
    table: dict = {}
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
    # an operator adds to the degree, so a formula comes after its parts
    for f in sorted(seen, key=degree):
        cls = type(f)
        if cls is Bot:
            table[f] = 0
        elif cls is Modal:
            table[f] = table[f.body]
        elif cls is And:
            table[f] = table[f.left] & table[f.right]
        elif cls is Or:
            table[f] = table[f.left] | table[f.right]
        elif cls is Imp:
            table[f] = (full ^ table[f.left]) | table[f.right]
    falsified = full
    for f in s.antecedent.distinct():
        falsified &= table[f]
    if s.succedent is not None:
        falsified &= full ^ table[s.succedent]
    if not falsified:
        return None
    j = (falsified & -falsified).bit_length() - 1
    return frozenset(a.name for i, a in enumerate(atoms) if j >> i & 1)


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
