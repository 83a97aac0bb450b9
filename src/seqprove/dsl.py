"""Parser and printer for the rule-definition DSL.

One rule per block::

    rule R_K { premises: G => phi ; conclusion: P, box G => box phi }

Premise patterns are separated by ``;`` (or the keyword ``none`` for axioms).
Antecedent items are context metavariables (uppercase identifiers, optionally
under ``box`` or ``box(i)``) or formula templates; the succedent is ``_``
(empty), an uppercase succedent metavariable, or a template.  In templates,
lowercase identifiers starting with phi/psi/gamma/chi are formula
metavariables and every other lowercase identifier is an atom metavariable.
``#`` starts a comment.  Rule names may carry a trailing ``->`` so that
generated implication rules round-trip.  Templates are read and printed by
the formula grammar of :mod:`seqprove.syntax`, spelled with ``box`` and
``box(i)``.  A block is read as a sequent is: each reader is a function of
the token list and an index that returns what it read and the index after
it.  A syntax error is a ``ParseError`` at an offset, which
:func:`parse_rules` reports by line.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from .syntax import And, Bot, Grammar, Imp, Modal, Or, ParseError, _expect
from .calculus import (
    AXIOM, AVar, BoxedCtx, CtxVar, DslValidationError, FVar, LEFT, OTHER_MODAL,
    Pattern, RIGHT, RIGHT_MODAL, RuleSchema, SuccVar, is_template, schema_problems,
    template_has_connective,
)

_KEYWORDS = {"rule", "premises", "conclusion", "none", "box", "false"}
_FVAR_PREFIXES = ("phi", "psi", "gamma", "chi")


def _int_token(lexeme: str, at: int):
    """The token of a lexeme that is neither a symbol nor a word: decimal
    digits are an INT; anything else is an error."""
    if not lexeme[0].isdecimal():
        raise ParseError(f"unexpected character {lexeme[0]!r}", at)
    return "INT", int(lexeme), at


def _box_index(toks, i):
    """The index of a box whose keyword ends before token ``i``: an optional
    ``(INT)``.  Returns it with the index of the token after it."""
    if toks[i][0] == "LPAR" and toks[i + 1][0] == "INT" and toks[i + 2][0] == "RPAR":
        return toks[i + 1][1], i + 3
    return 0, i


def _template_operand(toks, i):
    kind, value, at = toks[i]
    if kind == "IDENT":
        if value[0].isupper():
            raise ParseError(f"context metavariable {value} used in formula position", at)
        return (FVar(value) if value.startswith(_FVAR_PREFIXES) else AVar(value)), i + 1
    if kind == "TILDE":
        return -1, i + 1
    if kind == "KW" and value == "box":
        return _box_index(toks, i + 1)
    if kind == "KW" and value == "false":
        return Bot(), i + 1
    return None, i


def _box_prefix(index: int) -> str:
    return "box" if index == 0 else f"box({index})"


_TEMPLATE = Grammar(
    r"\d+|[^\W\d]\w*|=>|->|\S", r"\s*(?:#.*\s*)*",
    {"=>": "SEQARROW", "->": "ARROW", "{": "LBRACE", "}": "RBRACE", ":": "COLON",
     ";": "SEMI", ",": "COMMA", "&": "AMP", "|": "PIPE", "~": "TILDE", "(": "LPAR",
     ")": "RPAR"},
    dict.fromkeys(_KEYWORDS, "KW"), _int_token,
    _template_operand, "a formula template",
    lambda index: _box_prefix(index) + " ", frozenset([FVar, AVar]),
)


def _ctx_item(toks, i):
    """The antecedent item at token ``i``: a context metavariable, a boxed
    one, or a template."""
    kind, value, _ = toks[i]
    if kind == "IDENT" and value[0].isupper():
        return CtxVar(value), i + 1
    if kind == "KW" and value == "box":
        index, after = _box_index(toks, i + 1)
        kind, value, _ = toks[after]
        if kind == "IDENT" and value[0].isupper():
            return BoxedCtx(value, index), after + 1
        # a template that merely starts with box
    return _TEMPLATE.parse(toks, i)


def _pattern(toks, i):
    """The sequent pattern at token ``i``."""
    items = []
    if toks[i][0] != "SEQARROW":
        item, i = _ctx_item(toks, i)
        items.append(item)
        while toks[i][0] == "COMMA":
            item, i = _ctx_item(toks, i + 1)
            items.append(item)
    i = _expect(toks, i, "SEQARROW")
    kind, value, _ = toks[i]
    if kind == "IDENT" and value == "_":
        succ, i = None, i + 1
    elif kind == "IDENT" and value[0].isupper():
        succ, i = SuccVar(value), i + 1
    else:
        succ, i = _TEMPLATE.parse(toks, i)
    return Pattern(tuple(items), succ), i


def _rule_block(toks, i):
    """The rule whose block starts at token ``i``."""
    i = _expect(toks, i, "KW", "rule")
    name, i = toks[i][1], _expect(toks, i, "IDENT")
    if toks[i][0] == "ARROW":
        name, i = name + "->", i + 1
    i = _expect(toks, i, "LBRACE")
    i = _expect(toks, _expect(toks, i, "KW", "premises"), "COLON")
    premises = []
    if toks[i][:2] == ("KW", "none"):
        i = _expect(toks, i + 1, "SEMI")
    else:
        premise, i = _pattern(toks, i)
        premises.append(premise)
        while toks[i][0] == "SEMI":
            i += 1
            if toks[i][:2] == ("KW", "conclusion"):
                break
            premise, i = _pattern(toks, i)
            premises.append(premise)
    i = _expect(toks, _expect(toks, i, "KW", "conclusion"), "COLON")
    conclusion, i = _pattern(toks, i)
    i = _expect(toks, i, "RBRACE")
    if not premises:
        kind = AXIOM
    elif conclusion.is_right_modal():
        kind = RIGHT_MODAL
    elif any(map(_has_box, premises + [conclusion])):
        kind = OTHER_MODAL
    elif any(template_has_connective(t) for t in filter(is_template, conclusion.items)):
        kind = LEFT
    else:
        kind = RIGHT
    return RuleSchema(name, tuple(premises), conclusion, kind, provenance="user"), i


def _has_box(pat: Pattern) -> bool:
    """Whether pattern ``pat`` holds a boxed context or a boxed template."""
    todo = [*pat.items, pat.succedent]
    while todo:
        t = todo.pop()
        if isinstance(t, (BoxedCtx, Modal)):
            return True
        if isinstance(t, (And, Or, Imp)):
            todo += (t.left, t.right)
    return False


def parse_rules(text: str):
    """Parse a rule file.  Returns (rules, errors); rules that fail validation
    are reported in errors and omitted, valid ones are still returned."""
    rules: list[RuleSchema] = []
    errors: list[DslValidationError] = []
    newlines = [m.start() for m in re.finditer("\n", text)]

    def line(offset: int) -> int:
        return bisect_left(newlines, offset) + 1

    def stray(tok):
        errors.append(DslValidationError(line(tok[2]), None,
                                         f"expected 'rule', found {tok[1] or tok[0]}"))

    try:
        toks = _TEMPLATE.tokens(text)
    except ParseError as e:
        return [], [DslValidationError(line(e.position), None, e.message)]
    # every 'rule' keyword starts a block, so an error in one block cannot
    # hide the next
    starts = [i for i, (kind, value, _) in enumerate(toks) if kind == "KW" and value == "rule"]
    ends = starts[1:] + [len(toks) - 1]
    if (starts[0] if starts else len(toks) - 1) > 0:  # tokens before the first block
        stray(toks[0])
    for start, end in zip(starts, ends):
        try:
            rule, i = _rule_block(toks, start)
        except ParseError as e:
            errors.append(DslValidationError(line(e.position), None, e.message))
            continue
        problems = schema_problems(rule)
        if problems:
            for msg in problems:
                errors.append(DslValidationError(line(toks[start][2]), rule.name, msg))
        else:
            rules.append(rule)
        if i < end:
            stray(toks[i])
    return rules, errors


# --- printing ---------------------------------------------------------------

def template_text(t) -> str:
    return _TEMPLATE.text(t)


def _item_text(item) -> str:
    if isinstance(item, CtxVar):
        return item.name
    if isinstance(item, BoxedCtx):
        return f"{_box_prefix(item.index)} {item.name}"
    text = template_text(item)
    # parenthesize compound templates so items stay visually separate
    if isinstance(item, (And, Or, Imp)) and not text.startswith("~"):
        return "(" + text + ")"
    return text


def pattern_text(p: Pattern) -> str:
    items = ", ".join(_item_text(it) for it in p.items)
    if p.succedent is None:
        succ = "_"
    elif isinstance(p.succedent, SuccVar):
        succ = p.succedent.name
    else:
        succ = template_text(p.succedent)
    return f"{items} => {succ}" if items else f"=> {succ}"


def print_rule(rule: RuleSchema) -> str:
    prems = ("none" if not rule.premises
             else " ; ".join(pattern_text(p) for p in rule.premises))
    return (f"rule {rule.name} {{ premises: {prems} ; "
            f"conclusion: {pattern_text(rule.conclusion)} }}")


def print_rules(rules) -> str:
    return "\n".join(print_rule(r) for r in rules)
