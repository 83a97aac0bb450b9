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
``box(i)``.  A syntax error is a ``ParseError`` at an offset, which
:func:`parse_rules` reports by line.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from .syntax import And, Bot, Grammar, Imp, Modal, Or, ParseError
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


class _RuleParser:
    """Parses one block: the tokens from ``start`` up to the token ``end``
    after it (the next block's ``rule`` keyword, or EOF), which it reads but
    never consumes."""

    def __init__(self, toks, start: int, end: int):
        self.toks, self.pos, self.end = toks, start, end

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        if self.pos < self.end:
            self.pos += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            want = value or kind
            raise ParseError(f"expected {want}, found {t[1] or t[0]}", t[2])
        return t

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t[0] == "KW" and t[1] == word

    def template(self):
        # the grammar stops at the end token: it is neither operand nor operator
        t, self.pos = _TEMPLATE.parse(self.toks, self.pos)
        return t

    # -- patterns -------------------------------------------------------

    def ctx_item(self):
        kind, value, _line = self.peek()
        if kind == "IDENT" and value[0].isupper():
            self.next()
            return CtxVar(value)
        if kind == "KW" and value == "box":
            idx, after = _box_index(self.toks, self.pos + 1)
            k2, v2, _ = self.toks[after]
            if k2 == "IDENT" and v2 and v2[0].isupper():
                self.pos = after + 1
                return BoxedCtx(v2, idx)
            # a template that merely starts with box
        return self.template()

    def seqpat(self) -> Pattern:
        items = []
        if self.peek()[0] != "SEQARROW":
            items.append(self.ctx_item())
            while self.peek()[0] == "COMMA":
                self.next()
                items.append(self.ctx_item())
        self.expect("SEQARROW")
        kind, value, _line = self.peek()
        if kind == "IDENT" and value == "_":
            self.next()
            succ = None
        elif kind == "IDENT" and value[0].isupper():
            self.next()
            succ = SuccVar(value)
        else:
            succ = self.template()
        return Pattern(tuple(items), succ)

    def rule_block(self) -> RuleSchema:
        self.expect("KW", "rule")
        name = self.expect("IDENT")[1]
        if self.peek()[0] == "ARROW":
            self.next()
            name += "->"
        self.expect("LBRACE")
        self.expect("KW", "premises")
        self.expect("COLON")
        premises = []
        if self.at_keyword("none"):
            self.next()
            self.expect("SEMI")
        else:
            premises.append(self.seqpat())
            while self.peek()[0] == "SEMI":
                self.next()
                if self.at_keyword("conclusion"):
                    break
                premises.append(self.seqpat())
        self.expect("KW", "conclusion")
        self.expect("COLON")
        conclusion = self.seqpat()
        self.expect("RBRACE")
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
        return RuleSchema(name, tuple(premises), conclusion, kind, provenance="user")


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
        parser = _RuleParser(toks, start, end)
        try:
            rule = parser.rule_block()
        except ParseError as e:
            errors.append(DslValidationError(line(e.position), None, e.message))
            continue
        problems = schema_problems(rule)
        if problems:
            for msg in problems:
                errors.append(DslValidationError(line(toks[start][2]), rule.name, msg))
        else:
            rules.append(rule)
        if parser.pos < end:
            stray(parser.peek())
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
