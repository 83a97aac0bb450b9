"""The benchmark's own inputs, made from its seed and handed to seqprove as text.

Nothing here imports seqprove: the expected verdicts come from the published
definitions of the families and from the truth tables below, never from the
code under test.

Atom names are ``<prefix><index>`` with a seeded two-letter prefix and
zero-padded indices.  A different seed gives different text, but the relative
order of the atoms, and with it every canonical iteration order of the prover,
stays the same, so a family instance costs the same under every seed.
"""

from __future__ import annotations

import itertools
import random
import string

PROVABLE = "provable"
UNPROVABLE = "unprovable"

# Calculi of the families workload.  KT_RULES is relative to the benchmark
# directory; workloads.py turns it into a path the CLI can open.
K, KD, KT = "G4i+R_K", "G4i+R_K,R_D", "G4i+R_K,R_T"
KT_RULES = "data/kt.rules"

# Rule sets of the fuzz workload (criterion 1's four sets).
FUZZ_RULE_SETS = ((), ("R_K",), ("R_K", "R_D"), ("R_T",))
FUZZ_ATOMS = 3
FUZZ_MAX_SIZE = 12
FUZZ_MODAL_DEPTH = 2

# Random instances of each certify construction.
CERTIFY_PER_CONSTRUCTION = 10


class Names:
    """Seeded, order-preserving atom names."""

    def __init__(self, seed: int):
        rng = random.Random(f"{seed}:names")
        self.prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(2))

    def __call__(self, *index: int) -> str:
        return self.prefix + "_".join(f"{i:02d}" for i in index)


# --- text helpers ---------------------------------------------------------------

def imp(a: str, b: str) -> str:
    return f"({a} -> {b})"


def conj(parts) -> str:
    return "(" + " & ".join(parts) + ")"


def disj(parts) -> str:
    return "(" + " | ".join(parts) + ")"


def iff(a: str, b: str) -> str:
    return conj([imp(a, b), imp(b, a)])


def neg(a: str, k: int = 1) -> str:
    return "~" * k + a


def box(a: str) -> str:
    return f"[]{a}"


def sequent(ante, succ: str) -> str:
    return ", ".join(ante) + " => " + succ


# --- families -------------------------------------------------------------------
#
# After Dyckhoff's benchmark formulae for intuitionistic propositional logic
# (1997; ILTP SYJ201-SYJ212), written as sequents: the antecedent lists the
# conjuncts of the formula's premise.  Every UNPROVABLE variant is either
# classically falsifiable (so intuitionistically unprovable) or refuted by the
# two-world Kripke model named beside it; test_bench.py checks both kinds.

def chain(a, n: int, gap: int | None = None):
    """a0, a0 -> a1, ..., a(n-1) -> an => an; without link gap when given."""
    links = [imp(a(i), a(i + 1)) for i in range(n) if i != gap]
    return [a(0)] + links, a(n)


def schwicht(a, n: int, negated: bool):
    """Schwichtenberg: an, ai -> ai -> a(i-1) (i = n..1) => a0.  With
    ~~an in place of an it is unprovable (two-world model: all atoms hold
    only in the upper world)."""
    top = neg(a(n), 2) if negated else a(n)
    return [top] + [imp(a(i), imp(a(i), a(i - 1))) for i in range(n, 0, -1)], a(0)


def pigeonhole(a, pigeons: int, holes: int):
    """Every pigeon sits in a hole => some hole holds two pigeons.  Provable
    with more pigeons than holes; falsifiable with as many."""
    ante = [disj([a(i, j) for j in range(holes)]) for i in range(pigeons)]
    clash = [conj([a(i, j), a(k, j)]) for j in range(holes)
             for i, k in itertools.combinations(range(pigeons), 2)]
    return ante, disj(clash)


def de_bruijn(a, m: int):
    """Atoms a1..am on a circle; (ai <-> a(i+1)) -> C for every i => C, where
    C is the conjunction of all atoms.  Provable for odd m (de Bruijn);
    falsifiable for even m by alternating truth values."""
    c = conj([a(i) for i in range(1, m + 1)])
    ante = [imp(iff(a(i), a(i % m + 1)), c) for i in range(1, m + 1)]
    return ante, c


def equiv_chain(a, n: int, gap: int | None = None):
    """a0 <-> a1, ..., a(n-1) <-> an => a0 <-> an; falsifiable without a link."""
    return [iff(a(i), a(i + 1)) for i in range(n) if i != gap], iff(a(0), a(n))


def negations(a, n: int, provable: bool):
    """~^n p => ~^(n+2) p is provable; ~^n p => p is unprovable for n >= 1
    (falsifiable for odd n; for even n, ~^n p is ~~p, refuted by the two-world
    model with p only in the upper world)."""
    return [neg(a(0), n)], neg(a(0), n + 2) if provable else a(0)


def boxed(ante_succ):
    ante, succ = ante_succ
    return [box(f) for f in ante], box(succ)


# (family, n, calculus, (antecedent, succedent), verdict).  Sizes are chosen so that
# one prove call takes at most about a quarter second at the seed commit.
def _family_table(a):
    rows = []
    for n in (8, 12, 16, 24, 32):
        rows.append(("chain", n, "G4ip", chain(a, n), PROVABLE))
        rows.append(("chain-gap", n, "G4ip", chain(a, n, gap=n // 2), UNPROVABLE))
    for n in (4, 8, 12, 16):
        rows.append(("schwicht", n, "G4ip", schwicht(a, n, False), PROVABLE))
        rows.append(("schwicht-negated", n, "G4ip", schwicht(a, n, True), UNPROVABLE))
    for n in (1, 2):
        rows.append(("pigeonhole", n, "G4ip", pigeonhole(a, n + 1, n), PROVABLE))
        rows.append(("pigeonhole-tight", n, "G4ip", pigeonhole(a, n + 1, n + 1), UNPROVABLE))
    for n in (1, 2):
        rows.append(("de-bruijn", n, "G4ip", de_bruijn(a, 2 * n + 1), PROVABLE))
        rows.append(("de-bruijn-even", n, "G4ip", de_bruijn(a, 2 * n), UNPROVABLE))
    for n in (2, 4, 6, 8):
        rows.append(("equiv", n, "G4ip", equiv_chain(a, n), PROVABLE))
        rows.append(("equiv-gap", n, "G4ip", equiv_chain(a, n, gap=n // 2), UNPROVABLE))
    for n in (10, 20, 40, 60):
        rows.append(("negations", n, "G4ip", negations(a, n, True), PROVABLE))
        rows.append(("negations-to-atom", n, "G4ip", negations(a, n, False), UNPROVABLE))
        rows.append(("negations-to-atom", n + 1, "G4ip", negations(a, n + 1, False), UNPROVABLE))
    for n in (2, 3, 4, 5, 6):
        for calc in (K, KD, KT):
            rows.append(("boxed-chain", n, calc, boxed(chain(a, n)), PROVABLE))
            rows.append(("boxed-chain-gap", n, calc, boxed(chain(a, n, gap=n // 2)), UNPROVABLE))
        ante, _ = boxed(chain(a, n))
        # []A => ~[]~A holds with seriality (R_D)
        rows.append(("boxed-chain-serial", n, KD, (ante, neg(box(neg(a(n)))) ), PROVABLE))
        # []A => A holds with reflexivity (R_T); without it a world that sees
        # no world refutes it
        rows.append(("boxed-chain-reflexive", n, KT, (ante, a(n)), PROVABLE))
        rows.append(("boxed-chain-reflexive", n, K, (ante, a(n)), UNPROVABLE))
        rows.append(("boxed-chain-reflexive", n, KT_RULES, (ante, a(n)), PROVABLE))
        rows.append(("boxed-chain-gap", n, KT_RULES, boxed(chain(a, n, gap=n // 2)), UNPROVABLE))
    return rows


def families(seed: int):
    """The families workload: list of (label, calculus, sequent text, verdict)."""
    a = Names(seed)
    out = []
    for family, n, calc, (ante, succ), verdict in _family_table(a):
        out.append((f"{family}/{n}", calc, sequent(ante, succ), verdict))
    return out


# --- random formulas (fuzz and certify) ---------------------------------------
#
# A formula is a tuple AST: ("atom", i), ("bot",), (op, left, right) for op in
# and/or/imp, or ("box", body).  Size counts nodes.

def random_formula(rng: random.Random, size: int, boxes_left: int, atoms: int):
    ops = []
    if size >= 3:
        ops += ["and", "or", "imp"]
    if size >= 2 and boxes_left > 0:
        ops.append("box")
    if not ops:
        return ("bot",) if rng.random() < 0.05 else ("atom", rng.randrange(atoms))
    op = rng.choice(ops)
    if op == "box":
        return ("box", random_formula(rng, size - 1, boxes_left - 1, atoms))
    k = rng.randint(1, size - 2)
    return (op, random_formula(rng, k, boxes_left, atoms),
            random_formula(rng, size - 1 - k, boxes_left, atoms))


def text(f, a) -> str:
    tag = f[0]
    if tag == "atom":
        return a(f[1])
    if tag == "bot":
        return "false"
    if tag == "box":
        return box(text(f[1], a))
    sym = {"and": "&", "or": "|", "imp": "->"}[tag]
    return f"({text(f[1], a)} {sym} {text(f[2], a)})"


def erased_value(f, valuation) -> bool:
    """Classical truth value of f with every box erased."""
    tag = f[0]
    if tag == "atom":
        return valuation[f[1]]
    if tag == "bot":
        return False
    if tag == "box":
        return erased_value(f[1], valuation)
    left, right = erased_value(f[1], valuation), erased_value(f[2], valuation)
    if tag == "and":
        return left and right
    if tag == "or":
        return left or right
    return (not left) or right


def erased_falsifiable(ante, succ, atoms: int) -> bool:
    """Some valuation makes every antecedent formula true and the succedent
    (falsum when absent) false, once all boxes are erased.  R_K, R_D, R_T and
    their generated rules all hold in a one-world reflexive model, so such a
    sequent is UNPROVABLE in every calculus of the fuzz workload."""
    for valuation in itertools.product((False, True), repeat=atoms):
        if all(erased_value(f, valuation) for f in ante) and \
                not (succ is not None and erased_value(succ, valuation)):
            return True
    return False


def fuzz_case(index: int, a):
    """Sequent ``index`` of the fuzz stream: (rule set, ante ASTs, succ AST, text).

    The formulas come from one fixed stream and the seed only renames atoms,
    as in the families: the search cost of random sequents has a heavy tail
    (one can take seconds), so a stream drawn from the seed would make a
    run's figures, and its length, depend on the seed more than on the code."""
    rng = random.Random(f"fuzz:{index}")
    size = lambda: rng.randint(1, FUZZ_MAX_SIZE)
    ante = [random_formula(rng, size(), FUZZ_MODAL_DEPTH, FUZZ_ATOMS)
            for _ in range(rng.randint(0, 2))]
    succ = random_formula(rng, size(), FUZZ_MODAL_DEPTH, FUZZ_ATOMS) if rng.random() < 0.9 else None
    body = ", ".join(text(f, a) for f in ante)
    seq = (body + " => " if body else "=> ") + (text(succ, a) if succ is not None else "")
    return FUZZ_RULE_SETS[index % len(FUZZ_RULE_SETS)], ante, succ, seq.rstrip()


def fuzz(seed: int, count: int):
    a = Names(seed)
    return [fuzz_case(i, a) for i in range(count)]


# --- certify ---------------------------------------------------------------------
#
# Sequents provable by construction, whatever the box-free formulas A, B, C.
# The formulas come from one fixed stream and the seed only renames atoms, as
# in the families, so certify's figures do not move with the seed.

_CONSTRUCTIONS = (
    (("A", "A -> B"), "B"),
    (("A & B",), "B & A"),
    (("A",), "A | B"),
    (("A -> B", "B -> C"), "A -> C"),
    (("A | B", "A -> C", "B -> C"), "C"),
    (("A",), "~~A"),
)
_K_CONSTRUCTIONS = (
    (("[]A", "[](A -> B)"), "[]B"),
    (("[](A & B)",), "[]B & []A"),
    (("[]A", "[]B"), "[](A & B)"),
)


def _fill(template: str, parts: dict) -> str:
    out = template
    for name, value in parts.items():
        out = out.replace(name, value)
    return out


def certify(seed: int):
    """The certify workload's sequents: list of (label, modal rules, text)."""
    a = Names(seed)
    rng = random.Random("certify")
    out = []
    for modal, table in (((), _CONSTRUCTIONS), (("R_K",), _K_CONSTRUCTIONS)):
        for c, (ante, succ) in enumerate(table):
            for k in range(CERTIFY_PER_CONSTRUCTION):
                parts = {v: text(random_formula(rng, 4, 0, FUZZ_ATOMS), a)
                         for v in "ABC"}
                seq = sequent([_fill(t, parts) for t in ante], _fill(succ, parts))
                out.append((f"construction-{'K' if modal else 'ip'}{c}/{k}", modal, seq))
    for label, n, pair in (("chain", 8, chain(a, 8)), ("schwicht", 6, schwicht(a, 6, False)),
                              ("pigeonhole", 1, pigeonhole(a, 2, 1)), ("de-bruijn", 1, de_bruijn(a, 3)),
                              ("equiv", 3, equiv_chain(a, 3)), ("negations", 4, negations(a, 4, True))):
        out.append((f"{label}/{n}", (), sequent(*pair)))
    # boxed contexts of 4 to 10 formulas
    for n in range(3, 10):
        out.append((f"boxed-chain/{n}", ("R_K",), sequent(*boxed(chain(a, n)))))
    return out
