"""Tests of the benchmark itself: seeded inputs, reference verdicts, oracles,
tracing and the result line.  Run with ``python -m pytest bench -q`` from the
repository root."""

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run

workloads = run.import_workloads()

import inputs  # noqa: E402
import tracing  # noqa: E402
from seqprove import prover, syntax  # noqa: E402
from seqprove.syntax import And, Atom, Bot, Imp, Or  # noqa: E402

ROOT = os.path.dirname(run.BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


# --- inputs ---------------------------------------------------------------------------

def _texts(seed):
    return ([t for _, _, t, _ in inputs.families(seed)],
            [c[3] for c in inputs.fuzz(seed, 200)],
            [t for _, _, t in inputs.certify(seed)])


def test_same_seed_same_text_other_seed_other_text():
    assert _texts(5) == _texts(5)
    for a, b in zip(_texts(5), _texts(6)):
        assert a != b


def test_fuzz_and_certify_cost_does_not_depend_on_the_seed():
    strip = lambda text: re.sub(r"\b[a-z]{2}(?=\d)", "x", text)
    assert [strip(t) for _, _, t in inputs.certify(5)] == [strip(t) for _, _, t in inputs.certify(6)]
    assert [strip(c[3]) for c in inputs.fuzz(5, 200)] == [strip(c[3]) for c in inputs.fuzz(6, 200)]


def test_fuzz_shape():
    for _, ante, succ, _ in inputs.fuzz(3, 400):
        for f in ante + ([succ] if succ else []):
            assert _size(f) <= inputs.FUZZ_MAX_SIZE
            assert _box_depth(f) <= inputs.FUZZ_MODAL_DEPTH


def _size(f):
    return 1 + sum(_size(g) for g in f[1:] if isinstance(g, tuple))


def _box_depth(f):
    inner = max((_box_depth(g) for g in f[1:] if isinstance(g, tuple)), default=0)
    return inner + (f[0] == "box")


# --- reference verdicts of the families ------------------------------------------------
#
# A PROVABLE instance must be classically valid once boxes are erased.  An
# UNPROVABLE one must be refuted by a model: classically (one reflexive world),
# by the two-world intuitionistic model with every atom true only above, or, in
# G4i+R_K alone, by one world that sees no world.

def _kleene(f, val):
    """Three-valued truth of f with boxes erased under a partial valuation."""
    if isinstance(f, Atom):
        return val.get(f.name)
    if isinstance(f, Bot):
        return False
    if not isinstance(f, (And, Or, Imp)):
        return _kleene(f.body, val)
    left, right = _kleene(f.left, val), _kleene(f.right, val)
    if isinstance(f, And):
        return False if False in (left, right) else (True if left and right else None)
    if isinstance(f, Or):
        return True if True in (left, right) else (False if left is right is False else None)
    if left is False or right is True:
        return True
    return False if (left, right) == (True, False) else None


def _classically_falsifiable(s) -> bool:
    parts = list(s.antecedent) + ([Imp(s.succedent, Bot())] if s.succedent is not None else [])
    names = sorted({g.name for f in parts for g in syntax.subformulas(f) if isinstance(g, Atom)})

    def search(i, val):
        values = [_kleene(f, val) for f in parts]
        if False in values:
            return False
        if all(values):
            return True
        for b in (True, False):
            val[names[i]] = b
            if search(i + 1, val):
                return True
        del val[names[i]]
        return False

    return search(0, {})


def _forced(f, w, model, memo):
    key = (f, w)
    if key not in memo:
        leq, sees, true_at = model
        if isinstance(f, Atom):
            memo[key] = w in true_at
        elif isinstance(f, Bot):
            memo[key] = False
        elif isinstance(f, And):
            memo[key] = _forced(f.left, w, model, memo) and _forced(f.right, w, model, memo)
        elif isinstance(f, Or):
            memo[key] = _forced(f.left, w, model, memo) or _forced(f.right, w, model, memo)
        elif isinstance(f, Imp):
            memo[key] = all(not _forced(f.left, v, model, memo) or _forced(f.right, v, model, memo)
                            for v in leq[w])
        else:
            memo[key] = all(_forced(f.body, u, model, memo) for v in leq[w] for u in sees[v])
    return memo[key]


def _refutes(model, s) -> bool:
    memo = {}
    return all(_forced(f, 0, model, memo) for f in s.antecedent) and \
        not (s.succedent is not None and _forced(s.succedent, 0, model, memo))


# (reflexive-transitive order, modal successors, worlds where every atom holds)
TWO_WORLDS = ({0: [0, 1], 1: [1]}, {0: [], 1: []}, {1})
BLIND_WORLD = ({0: [0]}, {0: []}, set())


@pytest.mark.parametrize("label,calc,text,verdict", inputs.families(1),
                         ids=[f"{r[0]} {r[1]}" for r in inputs.families(1)])
def test_family_verdict_has_a_reason(label, calc, text, verdict):
    s = syntax.parse_sequent(text)
    falsifiable = _classically_falsifiable(s)
    if verdict == inputs.PROVABLE:
        assert not falsifiable
    else:
        assert falsifiable or _refutes(TWO_WORLDS, s) or \
            (calc == inputs.K and _refutes(BLIND_WORLD, s))


# --- oracles ------------------------------------------------------------------------------

def _family_op(family, calc=None):
    for op in workloads.setup_families(1):
        if op.label.startswith(family + " ") and (calc is None or op.calc == calc):
            return op
    raise LookupError(family)


def test_families_flags_wrong_verdict():
    op = _family_op("chain/8")
    assert op.check(op.run()) is None
    wrong = workloads.FamilyOp("chain/8", op.calc, op.text, inputs.UNPROVABLE)
    assert "exit code" in wrong.check(wrong.run())


def test_families_flags_tampered_output():
    op = _family_op("chain/8")
    code, out = op.run()
    payload = json.loads(out)
    leaf = payload["derivation"]
    while leaf["children"]:
        leaf = leaf["children"][-1]
    leaf["rule"] = "LBot"
    tampered = json.dumps(payload, indent=2) + "\n"
    assert op.check((code, tampered)) == "check_derivation rejects the derivation"
    # later passes must repeat the first output byte for byte
    assert op.check((code, out)) == "output differs from the first pass"


def test_families_counts_a_wrong_verdict_in_every_pass():
    op = _family_op("chain/8")
    wrong = workloads.FamilyOp("chain/8", op.calc, op.text, inputs.UNPROVABLE)
    passes = [run.one_pass([wrong]) for _ in range(3)]
    assert [len(p.errors) for p in passes] == [1, 1, 1]
    assert "exit code" in passes[-1].errors[0][1]


def test_fuzz_flags_disagreement_unknown_and_erasure():
    ops = workloads.setup_fuzz(1, 200)
    provable = next(op for op in ops if op.run()[0].is_provable)
    r4, r3 = provable.run()
    assert provable.check((r4, r3)) is None
    assert "disagree" in provable.check((r4, prover.UNPROVABLE))
    assert "unknown" in provable.check((r4, prover.unknown("budget-exhausted")))
    lying = workloads.FuzzOp(provable.label, provable.c4, provable.c3, provable.text, True)
    assert "falsifiable" in lying.check(lying.run())


def test_fuzz_erasure_oracle_holds_on_the_stream():
    ops = workloads.setup_fuzz(11, 120)
    assert any(op.falsifiable for op in ops)
    assert all(op.check(op.run()) is None for op in ops)


def test_certify_flags_tampered_derivation():
    ops = workloads.setup_certify(1)
    op = next(op for op in ops if op.label.startswith("chain/8 [g4]"))
    assert op.check(op.run()) is None
    d = op.derivation
    bad_leaf = prover.Derivation(syntax.parse_sequent("=> " + inputs.Names(1)(0)), "Ax", None)
    tampered = prover.Derivation(d.conclusion, d.rule, d.instantiation,
                                 d.children[:-1] + (bad_leaf,))
    bad = workloads.CertifyOp(op.label, op.calc, tampered)
    assert "rejects" in bad.check(bad.run())
    missing = workloads.CertifyOp(op.label, op.calc, None)
    assert "did not prove" in missing.check(missing.run())


# --- tracing ----------------------------------------------------------------------------------

# Where each traced function runs inside operations or set-up.  parse_formula
# is on no workload's path: the CLI is given --sequent, and derivation JSON
# holds sequents.
ASSIGNED = {
    "families": ("cli.main", "dsl.parse_rules", "syntax.parse_sequent", "syntax.print_sequent",
                 "calculus.match_conclusion", "calculus.instantiate_premises",
                 "calculus.build_g4ix", "orders.sequent_less", "orders.multiset_less",
                 "orders.check_schema_termination", "prover.prove_g4"),
    "fuzz": ("calculus.match_conclusion", "calculus.build_g3ix", "prover.prove_g4",
             "prover.prove_g3", "orders.sequent_less"),
    "certify": ("prover.check_derivation", "prover.derivation_to_json",
                "prover.derivation_from_json", "syntax.parse_sequent", "syntax.print_sequent"),
}
SMALL_SETUP = {"families": workloads.setup_families,
               "fuzz": functools.partial(workloads.setup_fuzz, count=60),
               "certify": workloads.setup_certify}


@pytest.fixture(scope="module")
def traced_runs():
    return {w: run.traced_pass(SMALL_SETUP[w], 2) for w in ASSIGNED}


def test_every_assigned_function_is_called(traced_runs):
    covered = {f for fs in ASSIGNED.values() for f in fs}
    assert covered == set(tracing.FUNCTIONS) - {"syntax.parse_formula"}
    for w, functions in ASSIGNED.items():
        tracer, traced = traced_runs[w]
        assert not traced.errors, traced.errors
        for f in functions:
            assert tracer.calls[f] > 0, (w, f)
    assert traced_runs["fuzz"][0].match_modes["greedy"] > 0
    assert traced_runs["certify"][0].match_modes["exhaustive"] > 0
    assert traced_runs["families"][0].match_rules["K_user->"] > 0


def test_tracing_restores_originals_and_keeps_verdicts(traced_runs):
    from seqprove import calculus, cli
    assert prover.match_conclusion is calculus.match_conclusion
    assert not hasattr(cli.prove_g4, "__wrapped__")
    ops = SMALL_SETUP["fuzz"](2)
    assert run.one_pass(ops).verdicts == traced_runs["fuzz"][1].verdicts


def test_self_time_within_total(traced_runs):
    tracer, _ = traced_runs["certify"]
    for f in tracing.FUNCTIONS:
        assert 0 <= tracer.self_time[f] <= tracer.total[f] + 1e-9 or tracer.calls[f] == 0
    parents = {s[0]: s for s in tracer.spans}
    for span in tracer.spans:
        if span[4] != -1:
            parent = parents[span[4]]
            assert parent[2] <= span[2] and span[3] <= parent[3]


def test_metric_names():
    assert tracing.metric_name("calculus.match_conclusion.calls.R_K->") == \
        "calculus.match_conclusion.calls.R_K-imp"
    layer = run.layer_metrics(tracing.Tracer(), run.Pass(), 1.0)
    assert list(layer) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"] + SPEC["end_to_end"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])


# --- the command ------------------------------------------------------------------------------

def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line(trace, section):
    proc = _bench(ROOT, "--workload", "certify", "--seed", "4", "--seconds", "0.5",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(tmp_path, "--workload", "families", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
