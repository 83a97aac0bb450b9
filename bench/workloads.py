"""The three workloads: set-up, one timed operation, and the independent checks.

Every call into seqprove goes through a module attribute (``cli.main``,
``prover.prove_g4``, ...) at call time, so the traced run sees it once
tracing.py has rebound those attributes.

An operation's ``run`` is the only thing timed.  ``check`` runs afterwards,
untimed, and returns None or the reason the output is wrong.  ``verdict``
reduces an output to what the traced run must reproduce.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from seqprove import calculus, cli, dsl, prover, syntax

import inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXIT_CODES = {inputs.PROVABLE: 0, inputs.UNPROVABLE: 1}


def _nodes(d) -> int:
    return sum(1 for _ in prover.walk(d))


def _dict_nodes(obj) -> int:
    return 1 + sum(_dict_nodes(c) for c in obj.get("children", ()))


def _modal(names):
    builtin = calculus.builtin_modal_rules()
    return [builtin[n] for n in names]


def _calculi(names):
    """(G4iX, G3iX) for a tuple of builtin modal rule names."""
    modal = _modal(names)
    return calculus.build_g4ix(modal), calculus.build_g3ix(modal)


# --- families ---------------------------------------------------------------------

class FamilyOp:
    """``seqprove prove --calculus C --sequent TEXT --emit json``, in process."""

    def __init__(self, label: str, calc: str, text: str, verdict: str):
        self.label = f"{label} [{calc}]"
        self.calc = calc
        self.text = text
        self.expected = verdict
        self.argv = ["prove", "--calculus", calc, "--sequent", text, "--emit", "json"]
        self.first = None  # (output, check result) of the first pass

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def verdict(self, output):
        return output[0]

    def json_bytes(self, output) -> int:
        return len(output[1].encode())

    def nodes(self, output) -> int:
        derivation = json.loads(output[1]).get("derivation")
        return _dict_nodes(derivation) if derivation else 0

    def check(self, output):
        """The first pass's output is checked in full; a later pass must repeat
        it byte for byte, and then fails exactly when the first pass did."""
        if self.first is None:
            self.first = output, self._check_first(*output)
        first, error = self.first
        return error if output == first else "output differs from the first pass"

    def _check_first(self, code, out):
        if code != EXIT_CODES[self.expected]:
            return f"exit code {code}, literature verdict {self.expected}"
        payload = json.loads(out)
        if payload.get("verdict") != self.expected:
            return f"JSON verdict {payload.get('verdict')!r}"
        if self.expected == inputs.UNPROVABLE:
            return None if payload.get("derivation") is None else "derivation for an unprovable sequent"
        d = prover.derivation_from_dict(payload["derivation"])
        again = json.dumps({**payload, "derivation": prover.derivation_to_dict(d)}, indent=2) + "\n"
        if again != out:
            return "JSON round trip is not byte-identical"
        if not prover.check_derivation(self._calculus(), d):
            return "check_derivation rejects the derivation"
        return None

    def _calculus(self):
        spec = self.calc[len("G4i+"):] if self.calc.startswith("G4i+") else ""
        if os.path.exists(spec):
            with open(spec, encoding="utf-8") as fh:
                rules, errors = dsl.parse_rules(fh.read())
            if errors:
                raise ValueError(f"invalid rule file {spec}: {errors}")
            return calculus.build_g4ix(rules)
        return calculus.build_g4ix(_modal(tuple(n for n in spec.split(",") if n)))


def setup_families(seed: int):
    rules_file = os.path.relpath(os.path.join(BENCH_DIR, inputs.KT_RULES))
    ops = []
    for label, calc, text, verdict in inputs.families(seed):
        if calc == inputs.KT_RULES:
            calc = "G4i+" + rules_file
        ops.append(FamilyOp(label, calc, text, verdict))
    return ops


# --- fuzz -----------------------------------------------------------------------------

FUZZ_COUNT = 1000


class FuzzOp:
    """Decide one sequent text with prove_g4 on G4iX and prove_g3 on G3iX."""

    def __init__(self, label, c4, c3, text, falsifiable: bool):
        self.label = label
        self.c4, self.c3 = c4, c3
        self.text = text
        self.falsifiable = falsifiable

    def run(self):
        s = syntax.parse_sequent(self.text)
        return prover.prove_g4(self.c4, s), prover.prove_g3(self.c3, s)

    def verdict(self, output):
        return tuple(r.status for r in output)

    def json_bytes(self, output) -> int:
        return 0

    def nodes(self, output) -> int:
        return sum(_nodes(r.derivation) for r in output if r.derivation is not None)

    def check(self, output):
        r4, r3 = output
        if r3.status == "unknown":
            return f"G3 answers unknown ({r3.reason})"
        if r4.status != r3.status:
            return f"engines disagree: g4 {r4.status}, g3 {r3.status}"
        if self.falsifiable and r4.is_provable:
            return "provable, but classically falsifiable with boxes erased"
        return None


def setup_fuzz(seed: int, count: int = FUZZ_COUNT):
    calculi = {names: _calculi(names) for names in inputs.FUZZ_RULE_SETS}
    ops = []
    for i, (names, ante, succ, text) in enumerate(inputs.fuzz(seed, count)):
        c4, c3 = calculi[names]
        falsifiable = inputs.erased_falsifiable(ante, succ, inputs.FUZZ_ATOMS)
        ops.append(FuzzOp(f"fuzz/{i} [{','.join(names) or 'ip'}]", c4, c3, text, falsifiable))
    return ops


# --- certify --------------------------------------------------------------------------

class CertifyOp:
    """Criterion 8's path on a derivation made at set-up: check it, write it
    to JSON, read it back and check the reloaded copy."""

    def __init__(self, label, calc, derivation):
        self.label = label
        self.calc = calc
        self.derivation = derivation

    def run(self):
        if self.derivation is None:
            return None
        ok = prover.check_derivation(self.calc, self.derivation)
        blob = prover.derivation_to_json(self.derivation)
        loaded = prover.derivation_from_json(blob)
        return ok, blob, loaded, prover.check_derivation(self.calc, loaded)

    def verdict(self, output):
        return None if output is None else (output[0], output[3])

    def json_bytes(self, output) -> int:
        return 0 if output is None else len(output[1].encode())

    def nodes(self, output) -> int:
        return 0 if output is None else _nodes(output[2])

    def check(self, output):
        if output is None:
            return "the engine did not prove a sequent that is provable by construction"
        ok, blob, loaded, ok_loaded = output
        if not ok:
            return "check_derivation rejects the derivation"
        if not ok_loaded:
            return "check_derivation rejects the reloaded derivation"
        if prover.derivation_to_json(loaded) != blob:
            return "JSON round trip is not byte-identical"
        return None


def setup_certify(seed: int):
    calculi = {}
    ops = []
    for label, names, text in inputs.certify(seed):
        if names not in calculi:
            calculi[names] = _calculi(names)
        c4, c3 = calculi[names]
        s = syntax.parse_sequent(text)
        for engine, calc, prove in (("g4", c4, prover.prove_g4), ("g3", c3, prover.prove_g3)):
            try:
                derivation = prove(calc, s).derivation
            except Exception:  # counted as a failed operation, like a missing proof
                derivation = None
            ops.append(CertifyOp(f"{label} [{engine}]", calc, derivation))
    return ops


SETUP = {"families": setup_families, "fuzz": setup_fuzz, "certify": setup_certify}
