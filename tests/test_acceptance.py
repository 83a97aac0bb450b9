"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""

import itertools
import time
from functools import lru_cache

from seqprove.syntax import FMultiset, parse_formula, parse_sequent
from seqprove.calculus import (
    build_g3ix, build_g4ix, builtin_modal_rules, g3ip, g4ip,
)
from seqprove.orders import DYCKHOFF, check_schema_termination, multiset_less
from seqprove.prover import (
    check_derivation, derivation_from_json, derivation_to_json, prove_g3, prove_g4,
)
from seqprove.harness import (
    FuzzConfig, admissibility_suite, equivalence_fuzz, gen_sequent,
    invertibility_suite, strict_sensible_suite,
)

from oracles import multiset_less_bruteforce

B = builtin_modal_rules()
RULE_SETS = {
    "none": (),
    "R_K": ("R_K",),
    "R_K,R_D": ("R_K", "R_D"),
    "R_T": ("R_T",),
}


def verdict(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


@lru_cache(maxsize=None)
def equivalence_runs():
    reports = {}
    t0 = time.perf_counter()
    for label, names in RULE_SETS.items():
        cfg = FuzzConfig(seed=42, count=500, max_size=12, atoms=3, max_modal_depth=2)
        reports[label] = equivalence_fuzz([B[n] for n in names], cfg)
    return reports, time.perf_counter() - t0


def test_criterion_1_equivalence():
    reports, seconds = equivalence_runs()
    ok = True
    parts = []
    for label, rep in reports.items():
        s = rep.summary
        ok &= s["disagree"] == 0 and s["count"] == 500
        ok &= s["indefinite"] / s["count"] < 0.05
        parts.append(f"{label}: {s['disagree']} disagree, {s['indefinite']} indefinite")
    ok &= seconds < 120
    verdict("1 equivalence", ok, "; ".join(parts) + f"; {seconds:.1f}s")


def test_criterion_2_termination_verdicts():
    expected_terminating = [r.name for r in g4ip().rules] + ["R_K", "R_D", "R_T", "R_X"]
    expected_counterexample = ["R_K4", "R_GL", "R_SL", "LImp"]
    ok = True
    for rule in g4ip().rules:
        ok &= check_schema_termination(DYCKHOFF, rule).is_terminating
    for name in ("R_K", "R_D", "R_T", "R_X"):
        ok &= check_schema_termination(DYCKHOFF, B[name]).is_terminating
    for name in ("R_K4", "R_GL", "R_SL"):
        ok &= check_schema_termination(DYCKHOFF, B[name]).is_counterexample
    ok &= check_schema_termination(DYCKHOFF, g3ip().rule("LImp")).is_counterexample
    verdict("2 termination-verdicts", ok,
            f"{len(expected_terminating)} terminating, "
            f"{len(expected_counterexample)} counterexamples")


def test_criterion_3_no_termination_violation():
    # every rule instance applied by prove_g4 is asserted to decrease the
    # order; the equivalence runs cover all four rule sets, so reaching this
    # point without TerminationViolation is the check
    reports, _ = equivalence_runs()
    total = sum(rep.summary["count"] for rep in reports.values())
    verdict("3 runtime-termination", total == 2000,
            f"{total} prove_g4 searches, no TerminationViolation")


def test_criterion_4_admissibility():
    ok = True
    parts = []
    for label, names, depth in [("G4ip", (), 0), ("G4iK", ("R_K",), 2),
                                ("G4iKD", ("R_K", "R_D"), 2), ("G4iKT", ("R_K", "R_T"), 2)]:
        cfg = FuzzConfig(seed=42, count=100, max_size=8, atoms=3, max_modal_depth=depth)
        rep = admissibility_suite(build_g4ix([B[n] for n in names]), cfg)
        s = rep.summary
        ok &= s["disagree"] == 0 and s["shortfall"] == 0 and s["count"] == 300
        parts.append(f"{label}: {s['disagree']}/{s['count']}")
    verdict("4 admissibility", ok, "; ".join(parts))


def test_criterion_5_invertibility():
    ok = True
    parts = []
    for label, names, depth in [("G3ip", (), 0), ("G3iK", ("R_K",), 2)]:
        cfg = FuzzConfig(seed=42, count=100, max_size=8, atoms=3, max_modal_depth=depth)
        rep = invertibility_suite([B[n] for n in names], cfg)
        s = rep.summary
        ok &= s["disagree"] == 0 and s["shortfall"] == 0 and s["count"] == 600
        parts.append(f"{label}: {s['disagree']}/{s['count']}")
    verdict("5 invertibility", ok, "; ".join(parts))


def test_criterion_6_strict_sensible():
    ok = True
    parts = []
    for label, names in [("G3ip", ()), ("G3iK", ("R_K",))]:
        cfg = FuzzConfig(seed=42, count=100, max_size=8, atoms=3, max_modal_depth=2)
        rep = strict_sensible_suite([B[n] for n in names], cfg)
        s = rep.summary
        ok &= s["disagree"] == 0 and s["indefinite"] == 0 and s["shortfall"] == 0
        parts.append(f"{label}: {s['disagree']}/{s['count']}")
    verdict("6 strict-sensible", ok, "; ".join(parts))


GOLDEN = [
    # calculus label, modal names, sequent text, expected status
    ("ip", (), "=> p -> p", "provable"),
    ("ip", (), "=> p -> (q -> p)", "provable"),
    ("ip", (), "=> (p & q) -> p", "provable"),
    ("ip", (), "=> p -> (p | q)", "provable"),
    ("ip", (), "=> ~(p & ~p)", "provable"),
    ("ip", (), "=> (p | q) -> (q | p)", "provable"),
    ("ip", (), "=> (p -> q -> r) -> ((p -> q) -> (p -> r))", "provable"),
    ("ip", (), "=> ~~(p | ~p)", "provable"),
    ("ip", (), "p & q => q & p", "provable"),
    ("ip", (), "p -> q, q -> r => p -> r", "provable"),
    ("ip", (), "p | q, p -> r, q -> r => r", "provable"),
    ("ip", (), "false => q", "provable"),
    ("ip", (), "p, ~p =>", "provable"),
    ("ip", (), "=> ((p -> q) -> p) -> p", "unprovable"),  # Peirce
    ("ip", (), "=> p | ~p", "unprovable"),  # excluded middle
    ("ip", (), "=> ~~p -> p", "unprovable"),
    ("ip", (), "=> (p -> q) | (q -> p)", "unprovable"),
    ("ip", (), "=> p", "unprovable"),
    ("ip", (), "p | q => p & q", "unprovable"),
    ("ip", (), "p =>", "unprovable"),
    ("iK", ("R_K",), "[]p & []q => [](p & q)", "provable"),
    ("iK", ("R_K",), "[](p -> q), []p => []q", "provable"),
    ("iK", ("R_K",), "=> [](p -> p)", "provable"),
    ("iK", ("R_K",), "[]p => p", "unprovable"),
    ("iK", ("R_K",), "[]p => [][]p", "unprovable"),
    ("iK", ("R_K",), "[]false =>", "unprovable"),
    ("iKD", ("R_K", "R_D"), "[]false =>", "provable"),
    ("iKD", ("R_K", "R_D"), "=> ~[]false", "provable"),
    ("iKD", ("R_K", "R_D"), "[]p, [](p -> q) => ~[]~q", "provable"),
    ("iKD", ("R_K", "R_D"), "[]p => ~[]~p", "provable"),
    ("iKT", ("R_K", "R_T"), "[]p => p", "provable"),
    ("iKT", ("R_K", "R_T"), "=> []p -> p", "provable"),
    ("iKT", ("R_K", "R_T"), "[](p -> q) => p -> q", "provable"),
    ("iKT", ("R_K", "R_T"), "[]p => [][]p", "unprovable"),
    ("iKT", ("R_K", "R_T"), "p => []p", "unprovable"),
]


def _calculi(names):
    modal = [B[n] for n in names]
    return build_g3ix(modal), build_g4ix(modal)


def test_criterion_7_golden_verdicts():
    t0 = time.perf_counter()
    calculi = {names: _calculi(names) for names in {entry[1] for entry in GOLDEN}}
    bad = []
    for _, names, text, expected in GOLDEN:
        c3, c4 = calculi[names]
        s = parse_sequent(text)
        r4 = prove_g4(c4, s)
        r3 = prove_g3(c3, s)
        if r4.status != expected or r3.status != expected:
            bad.append(f"{text} [g4={r4.status}, g3={r3.status}, want={expected}]")
    seconds = time.perf_counter() - t0
    ok = not bad and len(GOLDEN) >= 25 and seconds < 5
    verdict("7 golden-verdicts", ok,
            f"{len(GOLDEN)} sequents, {seconds:.2f}s" + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_8_proof_object_integrity():
    checked = 0
    ok = True
    for _, names, text, expected in GOLDEN:
        if expected != "provable":
            continue
        c3, c4 = _calculi(names)
        for calc, engine in ((c4, prove_g4), (c3, prove_g3)):
            res = engine(calc, parse_sequent(text))
            ok &= res.is_provable and check_derivation(calc, res.derivation)
            blob = derivation_to_json(res.derivation)
            loaded = derivation_from_json(blob)
            ok &= derivation_to_json(loaded) == blob
            ok &= check_derivation(calc, loaded)
            checked += 1
    # fuzz both engines over generated sequents as well
    for names in [(), ("R_K",)]:
        c3, c4 = _calculi(names)
        cfg = FuzzConfig(seed=808, count=0, max_size=9, atoms=3, max_modal_depth=2)
        for i in range(150):
            s = gen_sequent(cfg, i)
            for calc, engine in ((c4, prove_g4), (c3, prove_g3)):
                res = engine(calc, s)
                if res.is_provable:
                    ok &= check_derivation(calc, res.derivation)
                    loaded = derivation_from_json(derivation_to_json(res.derivation))
                    ok &= check_derivation(calc, loaded)
                    checked += 1
    verdict("8 proof-integrity", ok, f"{checked} derivations validated")


def test_criterion_9_multiset_order_oracle():
    t0 = time.perf_counter()
    pool = [parse_formula(t) for t in
            ["p", "q", "false", "p & q", "p | q", "p -> q", "[]p", "~p"]]
    weights = [DYCKHOFF.weight(f) for f in pool]
    n = len(pool)
    vectors = [v for k in range(5)
               for v in itertools.combinations_with_replacement(range(n), k)]
    multisets = [FMultiset(pool[i] for i in v) for v in vectors]
    counts = []
    for v in vectors:
        c = [0] * n
        for i in v:
            c[i] += 1
        counts.append(tuple(c))

    # brute decompositions per gamma: (remainder counts, max replaced weight)
    def decomps(c):
        out = []
        for x in itertools.product(*[range(k + 1) for k in c]):
            if not any(x):
                continue
            rest = tuple(k - xi for k, xi in zip(c, x))
            top = max(weights[i] for i in range(n) if x[i])
            out.append((rest, top))
        return out

    all_decomps = [decomps(c) for c in counts]

    def brute_vec(d, gi):
        for rest, top in all_decomps[gi]:
            if all(r <= di for r, di in zip(rest, d)) and \
               all(weights[i] < top for i in range(n) if d[i] > rest[i]):
                return True
        return False

    mismatches = 0
    total = 0
    for gi, g in enumerate(counts):
        gamma = multisets[gi]
        for di, d in enumerate(counts):
            total += 1
            if multiset_less(DYCKHOFF, multisets[di], gamma) != brute_vec(d, gi):
                mismatches += 1
    seconds = time.perf_counter() - t0
    ok = mismatches == 0 and total == 495 * 495 and seconds < 10
    verdict("9 multiset-oracle", ok,
            f"{total} pairs, {mismatches} mismatches, {seconds:.1f}s")


def test_criterion_9_vector_oracle_matches_definition():
    # spot-check that the vectorized brute force in criterion 9 is the same
    # relation as the literal decomposition oracle
    import random
    pool = [parse_formula(t) for t in
            ["p", "q", "false", "p & q", "p | q", "p -> q", "[]p", "~p"]]
    rng = random.Random(99)
    for _ in range(300):
        delta = FMultiset(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        gamma = FMultiset(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        assert multiset_less(DYCKHOFF, delta, gamma) == \
            multiset_less_bruteforce(DYCKHOFF, delta, gamma)
