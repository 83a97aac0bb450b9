"""Proof search and calculus tooling for intuitionistic modal sequent calculi:
G3ip/G4ip with modal extensions, the right-modal-rule transformation, Dyckhoff
order termination checking, and cross-engine property suites."""

from .syntax import (
    And, Atom, Bot, FMultiset, Formula, Imp, Modal, Or, ParseError, Sequent,
    degree, interpret, neg, parse_formula, parse_sequent, print_formula,
    print_sequent,
)
from .calculus import (
    AVar, BoxedCtx, Calculus, CtxVar, DslValidationError, FVar, InvalidRulesError,
    Pattern, RuleSchema, SuccVar, build_g3ix, build_g4ix, builtin_modal_rules,
    g3ip, g4ip, instantiate_premises, is_nonflat, is_right_modal, match_conclusion,
    transform_right_modal,
)
from .dsl import parse_rules, print_rule, print_rules
from .orders import (
    DYCKHOFF, SamplingConfig, TerminationVerdict, WeightFunction,
    check_schema_termination, multiset_less, sequent_less,
)
from .prover import (
    Derivation, ProofResult, SearchBudget, TerminationViolation, check_derivation,
    derivation_from_json, derivation_to_json, find_strict_sensible, height,
    is_irreducible, is_sensible, is_strict, leftmost_length, prove_g3, prove_g4,
)
from .harness import (
    FuzzConfig, Report, admissibility_suite, equivalence_fuzz, gen_formula,
    gen_sequent, invertibility_suite, strict_sensible_suite,
)

__version__ = "0.1.0"
