"""Seeded random generation plus the executable versions of the calculus-level
statements: cross-engine equivalence fuzzing, structural-rule admissibility,
rule invertibility, and strict/sensible witness search.

Every suite is a deterministic function of its FuzzConfig: all randomness runs
through string-seeded generators keyed by (seed, stream tag, case index).
A suite whose cases must satisfy a hypothesis (a provable sequent, a provable
conclusion shape) draws them through the one rejection-sampling driver
:func:`_accepted`, and every suite records its cases through
:meth:`Report.add`, which numbers them per kind and flags them agree,
disagree or indefinite.
"""

from __future__ import annotations

import random
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

from .syntax import (
    And, Atom, Bot, FMultiset, Formula, Imp, Modal, Or, Sequent, print_sequent,
    sort_key, subformulas,
)
from .calculus import (
    LEFT, Calculus, CtxVar, FVar, Pattern, RuleSchema, SuccVar, build_g3ix, build_g4ix,
    g4ip, instantiate_pattern, instantiate_premises,
)
from .orders import termination_guard
from .prover import (
    SearchBudget, find_strict_sensible, is_irreducible, prove_g3, prove_g4,
    strict_sensible_throughout,
)

_ATOM_NAMES = ("p", "q", "r", "s", "t", "u", "v", "w")


def _atom(i: int) -> Atom:
    return Atom(_ATOM_NAMES[i]) if i < len(_ATOM_NAMES) else Atom(f"a{i}")


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 42
    count: int = 100
    max_size: int = 8
    atoms: int = 3
    max_modal_depth: int = 2
    budget: SearchBudget = SearchBudget(max_depth=80, max_nodes=200_000)

    def __post_init__(self):
        if self.count < 0 or self.max_size < 1 or self.atoms < 1 or self.max_modal_depth < 0:
            raise ValueError("count must be >= 0; max_size and atoms >= 1; modal depth >= 0")


@dataclass
class CaseRecord:
    index: int
    kind: str
    input_text: str
    detail: str
    flag: str  # "agree" | "disagree" | "indefinite"

    def line(self) -> str:
        fields = [str(self.index)]
        if self.kind != "equivalence":
            fields.append(self.kind)
        fields += [self.input_text, self.detail, self.flag]
        return "\t".join(fields)


@dataclass
class Report:
    title: str
    target: int
    cases: list = field(default_factory=list)
    _added: dict = field(default_factory=dict, init=False, repr=False)  # kind -> count

    def add(self, kind: str, input_text: str, detail: str, ok) -> None:
        """Record the next case of ``kind``: ``ok`` True, False or None flags
        it agree, disagree or indefinite."""
        index = self._added.get(kind, 0)
        self._added[kind] = index + 1
        flag = "indefinite" if ok is None else "agree" if ok else "disagree"
        self.cases.append(CaseRecord(index, kind, input_text, detail, flag))

    @property
    def summary(self) -> dict:
        flags = Counter(c.flag for c in self.cases)
        return {
            "title": self.title,
            "count": len(self.cases),
            "agree": flags["agree"],
            "disagree": flags["disagree"],
            "indefinite": flags["indefinite"],
            "shortfall": max(0, self.target - len(self.cases)),
        }

    def lines(self) -> list:
        return [c.line() for c in self.cases]

    def json_summary(self) -> str:
        import json
        return json.dumps(self.summary)

    def passed(self) -> bool:
        """No disagreement, no shortfall, and under 5% indefinite cases."""
        s = self.summary
        if s["disagree"] > 0 or s["shortfall"] > 0:
            return False
        return s["indefinite"] / max(1, s["count"]) < 0.05


# --- generation ---------------------------------------------------------------

def _build_formula(rng: random.Random, size: int, modal_left: int, atoms: int) -> Formula:
    ops = []
    if size >= 3:
        ops += ["and", "or", "imp"]
    if size >= 2 and modal_left > 0:
        ops.append("box")
    if not ops:
        return Bot() if rng.random() < 0.05 else _atom(rng.randrange(atoms))
    op = rng.choice(ops)
    if op == "box":
        return Modal(0, _build_formula(rng, size - 1, modal_left - 1, atoms))
    k = rng.randint(1, size - 2)
    left = _build_formula(rng, k, modal_left, atoms)
    right = _build_formula(rng, size - 1 - k, modal_left, atoms)
    return {"and": And, "or": Or, "imp": Imp}[op](left, right)


def gen_formula(cfg: FuzzConfig, index: int, tag: str = "formula") -> Formula:
    """Deterministic in (seed, tag, index); respects size/atom/modal bounds."""
    rng = random.Random(f"{cfg.seed}:{tag}:{index}")
    return _build_formula(rng, rng.randint(1, cfg.max_size), cfg.max_modal_depth, cfg.atoms)


def _rng_formula(cfg: FuzzConfig, rng: random.Random, max_size: int | None = None) -> Formula:
    size = rng.randint(1, max_size or cfg.max_size)
    return _build_formula(rng, size, cfg.max_modal_depth, cfg.atoms)


def gen_sequent(cfg: FuzzConfig, index: int, tag: str = "sequent") -> Sequent:
    rng = random.Random(f"{cfg.seed}:{tag}:{index}")
    ante = [_rng_formula(cfg, rng) for _ in range(rng.randint(0, 2))]
    succ = _rng_formula(cfg, rng) if rng.random() < 0.9 else None
    return Sequent(FMultiset(ante), succ)


def _pick(rng: random.Random, options) -> Formula:
    return options[rng.randrange(len(options))]


def _biased_succedent(cfg: FuzzConfig, rng: random.Random, ante) -> Formula | None:
    """Succedent proposal biased toward subformulas of the antecedent, which
    raises the hit rate of rejection sampling for provable sequents."""
    r = rng.random()
    if ante and r < 0.5:
        base = ante[rng.randrange(len(ante))]
        return _pick(rng, sorted(subformulas(base), key=sort_key))
    if r < 0.9:
        return _rng_formula(cfg, rng)
    return None


def _gen_candidate(cfg: FuzzConfig, index: int, tag: str) -> Sequent:
    rng = random.Random(f"{cfg.seed}:{tag}:{index}")
    ante = [_rng_formula(cfg, rng) for _ in range(rng.randint(0, 2))]
    return Sequent(FMultiset(ante), _biased_succedent(cfg, rng, ante))


def _accepted(cfg: FuzzConfig, make):
    """Rejection sampling: the first ``cfg.count`` cases that ``make(i)``
    returns for i = 0, 1, ... (None rejects ``i``), trying at most
    ``10 * cfg.count`` indices and none after the last case is found."""
    cases = map(make, range(10 * cfg.count))
    return islice((case for case in cases if case is not None), cfg.count)


# --- equivalence fuzzing --------------------------------------------------------

def equivalence_fuzz(modal, cfg: FuzzConfig) -> Report:
    """Compare prove_g4 on G4iX with loop-checked prove_g3 on G3iX over
    generated sequents, X the rules ``modal``.  G3 Unknowns count as
    indefinite, never as disagree."""
    safe_names = {"R_K", "R_D", "R_T"}
    for r in modal:
        if r.name not in safe_names:
            warnings.warn(f"modal rule {r.name}: the equivalence theorem's hypotheses "
                          f"are not verified for this rule", stacklevel=2)
    c3 = build_g3ix(modal)
    c4 = build_g4ix(modal)
    refusal, _ = termination_guard(c4, cfg.seed)
    if refusal is not None:
        raise ValueError(refusal)
    report = Report(f"equivalence {c3.name} vs {c4.name}", cfg.count)
    for i in range(cfg.count):
        s = gen_sequent(cfg, i)
        r4 = prove_g4(c4, s)
        r3 = prove_g3(c3, s, cfg.budget)
        report.add("equivalence", print_sequent(s), f"{r3.status}\t{r4.status}",
                   r3.status == r4.status if r3.is_definite else None)
    return report


# --- admissibility ---------------------------------------------------------------

def admissibility_suite(calculus: Calculus, cfg: FuzzConfig) -> Report:
    """Weakening, contraction and cut checks on sampled provable sequents of a
    G4-style calculus.  Every case hypothesis is established by rejection
    sampling (capped at 10x count attempts per check)."""
    if calculus.style != "G4":
        raise ValueError("admissibility_suite expects a G4-style calculus")
    report = Report(f"admissibility {calculus.name}", 3 * cfg.count)

    def provable(s: Sequent) -> bool:
        return prove_g4(calculus, s).is_provable

    # weakening: both displayed rules, on every sampled provable sequent
    def sample(i):
        s = _gen_candidate(cfg, i, "adm-sample")
        return s if provable(s) else None

    for j, s in enumerate(_accepted(cfg, sample)):
        extra = gen_formula(cfg, j, tag="adm-wk")
        ok = provable(Sequent(s.antecedent.add(extra), s.succedent))
        detail = "antecedent"
        if ok and s.succedent is None:
            ok = provable(Sequent(s.antecedent, extra))
            detail = "antecedent+succedent"
        report.add("weakening", print_sequent(s), detail, ok)

    # contraction: sample provable sequents with a duplicated antecedent formula
    def contraction(i):
        s = _gen_candidate(cfg, i, "adm-ctr")
        if not s.antecedent:
            return None
        rng = random.Random(f"{cfg.seed}:adm-ctr-pick:{i}")
        doubled = Sequent(s.antecedent.add(rng.choice(s.antecedent.support())), s.succedent)
        if not provable(doubled):
            return None
        return print_sequent(doubled), print_sequent(s), provable(s)

    for case in _accepted(cfg, contraction):
        report.add("contraction", *case)

    # cut: both hypotheses established by sampling; the cut formula comes from
    # the subformula pool of the left context plus small generated formulas
    def cut(i):
        rng = random.Random(f"{cfg.seed}:adm-cut:{i}")
        gamma1 = [_rng_formula(cfg, rng) for _ in range(rng.randint(0, 2))]
        r = rng.random()
        if gamma1 and r < 0.4:
            cut_formula = _pick(rng, gamma1)
        elif gamma1 and r < 0.7:
            pool = set()
            for f in gamma1:
                pool |= subformulas(f)
            cut_formula = _pick(rng, sorted(pool, key=sort_key))
        else:
            cut_formula = _rng_formula(cfg, rng, max_size=4)
        if not provable(Sequent(FMultiset(gamma1), cut_formula)):
            return None
        gamma2 = [_rng_formula(cfg, rng) for _ in range(rng.randint(0, 2))]
        delta = _biased_succedent(cfg, rng, gamma2 + [cut_formula])
        if not provable(Sequent(FMultiset(gamma2).add(cut_formula), delta)):
            return None
        concl = Sequent(FMultiset(gamma1 + gamma2), delta)
        return print_sequent(concl), f"cut on {cut_formula}", provable(concl)

    for case in _accepted(cfg, cut):
        report.add("cut", *case)
    return report


# --- invertibility ----------------------------------------------------------------

# Implication Inversion: G, phi -> psi => D over G, psi => D
_IMP_INV = RuleSchema("ImpInv", (Pattern((CtxVar("G"), FVar("psi")), SuccVar("D")),),
                      Pattern((CtxVar("G"), Imp(FVar("phi"), FVar("psi"))), SuccVar("D")), LEFT)


def invertibility_suite(modal, cfg: FuzzConfig) -> Report:
    """Invertibility of RAnd, LAnd, LOr, RImp and LpImp in G3iX, plus
    Implication Inversion: sample provable instances of each schema's
    conclusion and require every premise provable."""
    calculus = build_g3ix(modal)
    rules = (*map(calculus.rule, ("RAnd", "LAnd", "LOr", "RImp")),
             g4ip().rule("LpImp"), _IMP_INV)
    report = Report(f"invertibility {calculus.name}", 6 * cfg.count)

    def component(rng, gamma):
        # biased toward context subformulas so the conclusion shape is
        # provable often enough for rejection sampling
        if gamma and rng.random() < 0.75:
            base = _pick(rng, gamma.support())
            return _pick(rng, sorted(subformulas(base), key=sort_key))
        return _rng_formula(cfg, rng)

    def instance(rule, rng):
        # the suite's output is pinned, so the draws keep their order: G, phi
        # and psi, then p if the rule has it, then D biased on the
        # conclusion's antecedent
        gamma = FMultiset(_rng_formula(cfg, rng) for _ in range(rng.randint(0, 2)))
        inst = {"G": gamma, "phi": component(rng, gamma), "psi": component(rng, gamma)}
        if "p" in rule.metavars:
            inst["p"] = _atom(rng.randrange(cfg.atoms))
        if "D" in rule.metavars:
            ante = instantiate_pattern(Pattern(rule.conclusion.items), inst).antecedent
            inst["D"] = _biased_succedent(cfg, rng, list(ante))
        return instantiate_pattern(rule.conclusion, inst), instantiate_premises(rule, inst)

    def inversion(rule, i):
        concl, premises = instance(rule, random.Random(f"{cfg.seed}:inv-{rule.name}:{i}"))
        if not prove_g3(calculus, concl, cfg.budget).is_provable:
            return None
        verdicts = [prove_g3(calculus, p, cfg.budget) for p in premises]
        ok = (all(v.is_provable for v in verdicts)
              if all(v.is_definite for v in verdicts) else None)
        return print_sequent(concl), "; ".join(print_sequent(p) for p in premises), ok

    for rule in rules:
        for case in _accepted(cfg, lambda i: inversion(rule, i)):
            report.add(rule.name, *case)
    return report


# --- strict/sensible witnesses -------------------------------------------------

def _irreducible_candidate(cfg: FuzzConfig, index: int) -> Sequent:
    """Antecedents built from irreducible-friendly shapes: atoms, boxed
    formulas, and implications whose antecedent is not an atom."""
    rng = random.Random(f"{cfg.seed}:strict:{index}")
    items = []
    for _ in range(rng.randint(0, 2)):
        r = rng.random()
        small = _rng_formula(cfg, rng, max_size=max(2, cfg.max_size // 3))
        if r < 0.3:
            items.append(Modal(0, small))
        elif r < 0.6:
            items.append(Imp(Modal(0, small), _rng_formula(cfg, rng, max_size=3)))
        elif r < 0.8:
            items.append(Imp(Imp(small, _rng_formula(cfg, rng, max_size=2)),
                             _rng_formula(cfg, rng, max_size=2)))
        else:
            items.append(_atom(rng.randrange(cfg.atoms)))
    if items and rng.random() < 0.5:
        succ = _pick(rng, items)
    else:
        succ = _biased_succedent(cfg, rng, items)
    return Sequent(FMultiset(items), succ)


def strict_sensible_suite(modal, cfg: FuzzConfig) -> Report:
    """Sample provable irreducible sequents in G3iX and require a proof whose
    every irreducible-conclusion subderivation is sensible and strict."""
    calculus = build_g3ix(modal)
    report = Report(f"strict-sensible {calculus.name}", cfg.count)

    def witness(i):
        s = _irreducible_candidate(cfg, i)
        if not is_irreducible(s) or not prove_g3(calculus, s, cfg.budget).is_provable:
            return None
        res = find_strict_sensible(calculus, s, cfg.budget)
        ok = (res.is_provable and strict_sensible_throughout(res.derivation, calculus)
              if res.is_definite else None)
        return print_sequent(s), res.status, ok

    for case in _accepted(cfg, witness):
        report.add("strict-sensible", *case)
    return report
