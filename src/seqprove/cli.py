"""Command-line front end: proving, rule transformation, termination checking,
equivalence fuzzing, and rule-file validation.

Exit codes are a stable contract: 0 provable/success, 1 unprovable/negative,
2 unknown/indeterminate, 3 and above usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .syntax import FMultiset, ParseError, parse_formula, parse_sequent, Sequent
from .calculus import (
    Calculus, InvalidRulesError, build_g3ix, build_g4ix, builtin_modal_rules,
    g3ip, g4ip, is_right_modal,
)
from .dsl import parse_rules, print_rule
from .orders import (
    _SAMPLE_ATOMS, DYCKHOFF, SamplingConfig, WeightFunction, check_schema_termination,
    termination_guard,
)
from .prover import (
    SearchBudget, TerminationViolation, derivation_to_dict, dumps_indented,
    format_derivation, prove_g3, prove_g4,
)
from .harness import FuzzConfig, equivalence_fuzz

EXIT_PROVABLE = 0
EXIT_UNPROVABLE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3, not argparse's default 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        # argparse's own print_help swallows a failed write; a closed stdout
        # must reach main's BrokenPipeError handler
        (file or sys.stdout).write(self.format_help())


def _int_from(low: int, high: int | None = None):
    """An argparse type: an integer of at least ``low``, and at most ``high``
    if given.  A bad value is a usage error, caught before any work starts."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            want = f">= {low}" if high is None else f"from {low} to {high}"
            raise argparse.ArgumentTypeError(f"must be an integer {want}, not {text!r}")
        return value
    return parse


_POSITIVE = _int_from(1)
_NON_NEGATIVE = _int_from(0)


def _read_text(path: str) -> str:
    """The text of the UTF-8 file ``path``.  A file that cannot be opened or
    decoded, a directory included, is an input error, not a traceback."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(str(e)) from None
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: not UTF-8 text ({e})") from None


def _load_modal_spec(spec: str):
    """A comma list of builtin modal rule names, or a path to a DSL file."""
    if not spec:
        return []
    if os.path.exists(spec):
        rules, errors = parse_rules(_read_text(spec))
        if errors:
            raise CliError("invalid rule file:\n" + "\n".join(str(e) for e in errors))
        return rules
    builtin = builtin_modal_rules()
    out = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in builtin:
            raise CliError(f"unknown builtin rule {name!r} "
                           f"(expected one of {', '.join(builtin)} or a file path)")
        out.append(builtin[name])
    return out


def _resolve_calculus(name: str) -> Calculus:
    if name == "G3ip":
        return g3ip()
    if name == "G4ip":
        return g4ip()
    if name.startswith("G3i+"):
        return build_g3ix(_load_modal_spec(name[4:]))
    if name.startswith("G4i+"):
        return build_g4ix(_load_modal_spec(name[4:]))
    raise CliError(f"unknown calculus {name!r} (use G3ip, G4ip, G3i+<rules>, G4i+<rules>)")


def _load_weights(spec: str) -> WeightFunction:
    if spec == "dyckhoff":
        return DYCKHOFF
    if not os.path.exists(spec):
        raise CliError(f"weights file not found: {spec}")
    incs = {"and": 2, "or": 1, "imp": 1, "box": 1}
    for lineno, raw in enumerate(_read_text(spec).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"weights file line {lineno}: expected key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in incs:
            raise CliError(f"weights file line {lineno}: unknown key {key!r}")
        try:
            incs[key] = int(value)
        except ValueError:
            raise CliError(f"weights file line {lineno}: {value!r} is not an integer")
    try:
        return WeightFunction(os.path.basename(spec), incs["and"], incs["or"],
                              incs["imp"], incs["box"])
    except ValueError as e:
        raise CliError(str(e))


def cmd_prove(args) -> int:
    calculus = _resolve_calculus(args.calculus)
    if args.sequent:
        goal = parse_sequent(args.goal)
    else:
        goal = Sequent(FMultiset(), parse_formula(args.goal))
    if calculus.style == "G4":
        if not args.force:
            refusal, uncertified = termination_guard(calculus, args.seed)
            for name in uncertified:
                print(f"warning: termination of rule {name} could not be certified",
                      file=sys.stderr)
            if refusal is not None:
                raise CliError(f"{refusal} (use --force to override)")
        result = prove_g4(calculus, goal)
    else:
        result = prove_g3(calculus, goal, SearchBudget(max_depth=args.depth, max_nodes=args.nodes))
    if args.emit == "verdict":
        print(result.text())
    elif args.emit == "text":
        print(result.text())
        if result.derivation is not None:
            print(format_derivation(result.derivation))
    else:
        payload = {"verdict": result.status}
        if result.reason:
            payload["reason"] = result.reason
        payload["derivation"] = (derivation_to_dict(result.derivation)
                                 if result.derivation is not None else None)
        print(dumps_indented(payload, 2))
    if result.is_provable:
        return EXIT_PROVABLE
    if result.is_unprovable:
        return EXIT_UNPROVABLE
    return EXIT_UNKNOWN


def cmd_transform(args) -> int:
    modal = _load_modal_spec(args.rules)
    for r in modal:
        if not is_right_modal(r):
            print(f"warning: {r.name}: not right modal; no implication rule generated",
                  file=sys.stderr)
    calculus = build_g4ix(modal)
    print(f"# {calculus.name}")
    for r in calculus.rules:
        if r.provenance.startswith("generated-from:"):
            print(f"# generated from {r.provenance.split(':', 1)[1]}")
        print(print_rule(r))
    return 0


def cmd_check_termination(args) -> int:
    rules = _load_modal_spec(args.rules)
    if not rules:
        raise CliError("no rules given")
    weight = _load_weights(args.order)
    cfg = SamplingConfig(samples=args.samples, max_size=args.size,
                         atoms=args.atoms, seed=args.seed)
    saw_counterexample = saw_unknown = False
    for rule in rules:
        verdict = check_schema_termination(weight, rule, cfg)
        print(f"{rule.name}: {verdict.text()}")
        saw_counterexample |= verdict.is_counterexample
        saw_unknown |= verdict.status == "unknown"
    if saw_counterexample:
        return EXIT_UNPROVABLE
    return EXIT_UNKNOWN if saw_unknown else 0


def cmd_equiv_test(args) -> int:
    modal = _load_modal_spec(args.modal)
    cfg = FuzzConfig(seed=args.seed, count=args.count, max_size=args.size,
                     atoms=args.atoms, max_modal_depth=args.modal_depth,
                     budget=SearchBudget(max_depth=args.depth, max_nodes=args.nodes))
    try:
        report = equivalence_fuzz(modal, cfg)
    except ValueError as e:
        raise CliError(str(e))
    for line in report.lines():
        print(line)
    print(report.json_summary())
    if report.summary["disagree"] > 0:
        return EXIT_UNPROVABLE
    return 0 if report.passed() else EXIT_UNKNOWN


def cmd_rules_parse(args) -> int:
    rules, errors = parse_rules(_read_text(args.file))
    for r in rules:
        print(f"# {r.name}: {r.kind}, {len(r.premises)} premise(s)")
        print(print_rule(r))
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return EXIT_USAGE if errors else 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="seqprove",
                     description="Proof search and calculus tooling for "
                                 "intuitionistic modal sequent calculi.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="decide a formula or sequent")
    p.add_argument("goal", help="formula, or sequent text with --sequent")
    p.add_argument("--calculus", default="G4ip",
                   help="G3ip, G4ip, G3i+<rules>, or G4i+<rules>")
    p.add_argument("--sequent", action="store_true",
                   help="parse the goal as a sequent instead of a formula")
    p.add_argument("--emit", choices=("verdict", "text", "json"), default="verdict")
    p.add_argument("--depth", type=_POSITIVE, default=120)
    p.add_argument("--nodes", type=_POSITIVE, default=400_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true",
                   help="run the g4 engine even if termination is not certified")
    p.set_defaults(handler=cmd_prove)

    p = sub.add_parser("transform", help="print the G4iX rule set for modal rules")
    p.add_argument("--rules", required=True, help="builtin rule names or a DSL file")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("check-termination", help="check rules against a sequent order")
    p.add_argument("--rules", required=True)
    p.add_argument("--order", default="dyckhoff", help="dyckhoff or a weights file")
    p.add_argument("--samples", type=_NON_NEGATIVE, default=400)
    p.add_argument("--size", type=_POSITIVE, default=3)
    p.add_argument("--atoms", type=_int_from(1, len(_SAMPLE_ATOMS)), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_check_termination)

    p = sub.add_parser("equiv-test", help="cross-engine equivalence fuzzing")
    p.add_argument("--modal", default="", help="modal rule names or a DSL file")
    p.add_argument("--count", type=_NON_NEGATIVE, default=200)
    p.add_argument("--size", type=_POSITIVE, default=10)
    p.add_argument("--atoms", type=_POSITIVE, default=3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--modal-depth", type=_NON_NEGATIVE, default=2)
    p.add_argument("--depth", type=_POSITIVE, default=80)
    p.add_argument("--nodes", type=_POSITIVE, default=200_000)
    p.set_defaults(handler=cmd_equiv_test)

    p = sub.add_parser("rules-parse", help="validate and normalize a rule file")
    p.add_argument("file")
    p.set_defaults(handler=cmd_rules_parse)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:  # after help, or a usage error on stderr
            code = e.code if isinstance(e.code, int) else EXIT_USAGE
        else:
            code = args.handler(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null device,
        # so that the flush at interpreter exit has nothing to complain about
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        print("seqprove: error: standard output is closed", file=sys.stderr)
        return EXIT_USAGE
    except (CliError, InvalidRulesError) as e:
        print(f"seqprove: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as e:
        print(f"seqprove: parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TerminationViolation as e:
        print(f"seqprove: termination violation: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("seqprove: error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
