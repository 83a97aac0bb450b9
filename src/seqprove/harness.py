"""Seeded random generation plus the executable versions of the calculus-level
statements: cross-engine equivalence fuzzing, structural-rule admissibility,
rule invertibility, and strict/sensible witness search.

Every suite is a deterministic function of its FuzzConfig: all randomness runs
through string-seeded generators keyed by (seed, stream tag, case index).
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass, field

from .syntax import (
    And, Atom, Bot, FMultiset, Formula, Imp, Modal, Or, Sequent, print_sequent,
    sort_key, subformulas,
)
from .calculus import Calculus, build_g3ix, build_g4ix, builtin_modal_rules
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
    modal_rules: tuple = ()
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
    millis: float = 0.0

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

    @property
    def summary(self) -> dict:
        agree = sum(1 for c in self.cases if c.flag == "agree")
        disagree = sum(1 for c in self.cases if c.flag == "disagree")
        indefinite = sum(1 for c in self.cases if c.flag == "indefinite")
        return {
            "title": self.title,
            "count": len(self.cases),
            "agree": agree,
            "disagree": disagree,
            "indefinite": indefinite,
            "shortfall": max(0, self.target - len(self.cases)),
        }

    def lines(self) -> list:
        return [c.line() for c in self.cases]

    def json_summary(self) -> str:
        import json
        return json.dumps(self.summary)

    def passed(self, max_indefinite_frac: float = 0.05) -> bool:
        s = self.summary
        if s["disagree"] > 0 or s["shortfall"] > 0:
            return False
        total = max(1, s["count"])
        return s["indefinite"] / total < max_indefinite_frac


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


def _resolve_modal(cfg: FuzzConfig, modal) -> list:
    if modal is not None:
        return list(modal)
    builtin = builtin_modal_rules()
    out = []
    for name in cfg.modal_rules:
        if name not in builtin:
            raise ValueError(f"unknown builtin modal rule {name!r}")
        out.append(builtin[name])
    return out


# --- equivalence fuzzing --------------------------------------------------------

def equivalence_fuzz(cfg: FuzzConfig, modal=None, match_mode: str = "greedy") -> Report:
    """Compare prove_g4 on G4iX with loop-checked prove_g3 on G3iX over
    generated sequents.  G3 Unknowns count as indefinite, never as disagree."""
    rules = _resolve_modal(cfg, modal)
    safe_names = {"R_K", "R_D", "R_T"}
    for r in rules:
        if r.name not in safe_names:
            warnings.warn(f"modal rule {r.name}: the equivalence theorem's hypotheses "
                          f"are not verified for this rule", stacklevel=2)
    c3 = build_g3ix(rules)
    c4 = build_g4ix(rules)
    counterexample, _ = termination_guard(c4, cfg.seed)
    if counterexample is not None:
        name, verdict = counterexample
        raise ValueError(
            f"the G4 engine requires a terminating calculus, but rule "
            f"{name} is not terminating in the Dyckhoff order: {verdict.text()}")
    report = Report(f"equivalence {c3.name} vs {c4.name}", cfg.count)
    for i in range(cfg.count):
        s = gen_sequent(cfg, i)
        t0 = time.perf_counter()
        r4 = prove_g4(c4, s, match_mode=match_mode)
        r3 = prove_g3(c3, s, cfg.budget, match_mode=match_mode)
        millis = (time.perf_counter() - t0) * 1000.0
        if not r3.is_definite:
            flag = "indefinite"
        elif r3.status == r4.status:
            flag = "agree"
        else:
            flag = "disagree"
        report.cases.append(CaseRecord(i, "equivalence", print_sequent(s),
                                       f"{r3.status}\t{r4.status}", flag, millis))
    return report


# --- admissibility ---------------------------------------------------------------

def _sample_provable(calculus: Calculus, cfg: FuzzConfig, tag: str) -> list:
    out = []
    cap = 10 * cfg.count
    for i in range(cap):
        if len(out) >= cfg.count:
            break
        s = _gen_candidate(cfg, i, tag)
        if prove_g4(calculus, s).is_provable:
            out.append(s)
    return out


def admissibility_suite(calculus: Calculus, cfg: FuzzConfig) -> Report:
    """Weakening, contraction and cut checks on sampled provable sequents of a
    G4-style calculus.  Every case hypothesis is established by rejection
    sampling (capped at 10x count attempts per check)."""
    if calculus.style != "G4":
        raise ValueError("admissibility_suite expects a G4-style calculus")
    report = Report(f"admissibility {calculus.name}", 3 * cfg.count)
    cap = 10 * cfg.count

    # weakening: both displayed rules, on every sampled provable sequent
    pool = _sample_provable(calculus, cfg, "adm-sample")
    for j, s in enumerate(pool):
        t0 = time.perf_counter()
        extra = gen_formula(cfg, j, tag="adm-wk")
        ok = prove_g4(calculus, Sequent(s.antecedent.add(extra), s.succedent)).is_provable
        detail = "antecedent"
        if ok and s.succedent is None:
            ok = prove_g4(calculus, Sequent(s.antecedent, extra)).is_provable
            detail = "antecedent+succedent"
        report.cases.append(CaseRecord(j, "weakening", print_sequent(s), detail,
                                       "agree" if ok else "disagree",
                                       (time.perf_counter() - t0) * 1000.0))

    # contraction: sample provable sequents with a duplicated antecedent formula
    done = 0
    for i in range(cap):
        if done >= cfg.count:
            break
        s = _gen_candidate(cfg, i, "adm-ctr")
        if not s.antecedent:
            continue
        rng = random.Random(f"{cfg.seed}:adm-ctr-pick:{i}")
        f = rng.choice(s.antecedent.support())
        doubled = Sequent(s.antecedent.add(f), s.succedent)
        if not prove_g4(calculus, doubled).is_provable:
            continue
        t0 = time.perf_counter()
        contracted = prove_g4(calculus, s).is_provable
        report.cases.append(CaseRecord(done, "contraction", print_sequent(doubled),
                                       print_sequent(s),
                                       "agree" if contracted else "disagree",
                                       (time.perf_counter() - t0) * 1000.0))
        done += 1

    # cut: both hypotheses established by sampling; the cut formula comes from
    # the subformula pool of the left context plus small generated formulas
    done = 0
    for i in range(cap):
        if done >= cfg.count:
            break
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
        if not prove_g4(calculus, Sequent(FMultiset(gamma1), cut_formula)).is_provable:
            continue
        gamma2 = [_rng_formula(cfg, rng) for _ in range(rng.randint(0, 2))]
        delta = _biased_succedent(cfg, rng, gamma2 + [cut_formula])
        if not prove_g4(calculus, Sequent(FMultiset(gamma2).add(cut_formula), delta)).is_provable:
            continue
        t0 = time.perf_counter()
        concl = Sequent(FMultiset(gamma1 + gamma2), delta)
        ok = prove_g4(calculus, concl).is_provable
        detail = f"cut on {cut_formula}"
        report.cases.append(CaseRecord(done, "cut", print_sequent(concl), detail,
                                       "agree" if ok else "disagree",
                                       (time.perf_counter() - t0) * 1000.0))
        done += 1
    return report


# --- invertibility ----------------------------------------------------------------

def invertibility_suite(modal, cfg: FuzzConfig) -> Report:
    """Invertibility of RAnd, LAnd, LOr, RImp and LpImp in G3iX, plus
    Implication Inversion: sample provable sequents of each conclusion shape
    and require every premise provable."""
    calculus = build_g3ix(modal)
    report = Report(f"invertibility {calculus.name}", 6 * cfg.count)
    cap = 10 * cfg.count

    def contexts(rng):
        return FMultiset(_rng_formula(cfg, rng) for _ in range(rng.randint(0, 2)))

    def component(rng, gamma):
        # biased toward context subformulas so the conclusion shape is
        # provable often enough for rejection sampling
        if gamma and rng.random() < 0.75:
            base = _pick(rng, gamma.support())
            return _pick(rng, sorted(subformulas(base), key=sort_key))
        return _rng_formula(cfg, rng)

    def biased_delta(rng, ante: FMultiset):
        return _biased_succedent(cfg, rng, list(ante))

    def shapes(name, rng):
        gamma = contexts(rng)
        phi = component(rng, gamma)
        psi = component(rng, gamma)
        if name == "RAnd":
            return Sequent(gamma, And(phi, psi)), [Sequent(gamma, phi), Sequent(gamma, psi)]
        if name == "LAnd":
            ante = gamma.add(And(phi, psi))
            delta = biased_delta(rng, ante)
            return Sequent(ante, delta), [Sequent(gamma.add(phi).add(psi), delta)]
        if name == "LOr":
            ante = gamma.add(Or(phi, psi))
            delta = biased_delta(rng, ante)
            return (Sequent(ante, delta),
                    [Sequent(gamma.add(phi), delta), Sequent(gamma.add(psi), delta)])
        if name == "RImp":
            return Sequent(gamma, Imp(phi, psi)), [Sequent(gamma.add(phi), psi)]
        if name == "LpImp":
            p = _atom(rng.randrange(cfg.atoms))
            ante = gamma.add(p).add(Imp(p, phi))
            delta = biased_delta(rng, ante)
            return Sequent(ante, delta), [Sequent(gamma.add(p).add(phi), delta)]
        # Implication Inversion
        ante = gamma.add(Imp(phi, psi))
        delta = biased_delta(rng, ante)
        return Sequent(ante, delta), [Sequent(gamma.add(psi), delta)]

    for name in ("RAnd", "LAnd", "LOr", "RImp", "LpImp", "ImpInv"):
        done = 0
        for i in range(cap):
            if done >= cfg.count:
                break
            rng = random.Random(f"{cfg.seed}:inv-{name}:{i}")
            concl, premises = shapes(name, rng)
            if not prove_g3(calculus, concl, cfg.budget).is_provable:
                continue
            t0 = time.perf_counter()
            verdicts = [prove_g3(calculus, p, cfg.budget) for p in premises]
            if any(not v.is_definite for v in verdicts):
                flag = "indefinite"
            elif all(v.is_provable for v in verdicts):
                flag = "agree"
            else:
                flag = "disagree"
            report.cases.append(CaseRecord(done, name, print_sequent(concl),
                                           "; ".join(print_sequent(p) for p in premises),
                                           flag, (time.perf_counter() - t0) * 1000.0))
            done += 1
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
    cap = 10 * cfg.count
    done = 0
    for i in range(cap):
        if done >= cfg.count:
            break
        s = _irreducible_candidate(cfg, i)
        if not is_irreducible(s):
            continue
        if not prove_g3(calculus, s, cfg.budget).is_provable:
            continue
        t0 = time.perf_counter()
        res = find_strict_sensible(calculus, s, cfg.budget)
        if not res.is_definite:
            flag = "indefinite"
        elif res.is_provable and strict_sensible_throughout(res.derivation, calculus):
            flag = "agree"
        else:
            flag = "disagree"
        report.cases.append(CaseRecord(done, "strict-sensible", print_sequent(s),
                                       res.status, flag,
                                       (time.perf_counter() - t0) * 1000.0))
        done += 1
    return report
