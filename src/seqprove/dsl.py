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
generated implication rules round-trip.
"""

from __future__ import annotations

from .syntax import And, Bot, Imp, Modal, Or
from .calculus import (
    AXIOM, AVar, BoxedCtx, CtxVar, DslValidationError, FVar, OTHER_MODAL,
    Pattern, RIGHT_MODAL, RuleSchema, SuccVar, schema_problems,
)

_KEYWORDS = {"rule", "premises", "conclusion", "none", "box", "false"}
_FVAR_PREFIXES = ("phi", "psi", "gamma", "chi")


class _DslSyntaxError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.message = message
        self.line = line


def _tokenize(text: str):
    toks = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 2]
        if two == "=>":
            toks.append(("SEQARROW", None, line))
            i += 2
            continue
        if two == "->":
            toks.append(("ARROW", None, line))
            i += 2
            continue
        if c in "{}:;,&|~()":
            kind = {"{": "LBRACE", "}": "RBRACE", ":": "COLON", ";": "SEMI",
                    ",": "COMMA", "&": "AMP", "|": "PIPE", "~": "TILDE",
                    "(": "LPAR", ")": "RPAR"}[c]
            toks.append((kind, None, line))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("INT", int(text[i:j]), line))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(("KW" if word in _KEYWORDS else "IDENT", word, line))
            i = j
            continue
        raise _DslSyntaxError(f"unexpected character {c!r}", line)
    toks.append(("EOF", None, line))
    return toks


class _RuleParser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        if t[0] != "EOF":
            self.pos += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            want = value or kind
            raise _DslSyntaxError(f"expected {want}, found {t[1] or t[0]}", t[2])
        return t

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t[0] == "KW" and t[1] == word

    # -- templates ------------------------------------------------------

    def template(self):
        left = self.t_disjunction()
        if self.peek()[0] == "ARROW":
            self.next()
            return Imp(left, self.template())
        return left

    def t_disjunction(self):
        f = self.t_conjunction()
        while self.peek()[0] == "PIPE":
            self.next()
            f = Or(f, self.t_conjunction())
        return f

    def t_conjunction(self):
        f = self.t_unary()
        while self.peek()[0] == "AMP":
            self.next()
            f = And(f, self.t_unary())
        return f

    def _box_index(self) -> int:
        # after "box": optional "(" INT ")"
        if self.peek()[0] == "LPAR" and self.peek(1)[0] == "INT" and self.peek(2)[0] == "RPAR":
            self.next()
            idx = self.next()[1]
            self.next()
            return idx
        return 0

    def t_unary(self):
        kind, value, line = self.peek()
        if kind == "TILDE":
            self.next()
            return Imp(self.t_unary(), Bot())
        if kind == "KW" and value == "box":
            self.next()
            idx = self._box_index()
            return Modal(idx, self.t_unary())
        if kind == "KW" and value == "false":
            self.next()
            return Bot()
        if kind == "IDENT":
            if value[0].isupper():
                raise _DslSyntaxError(
                    f"context metavariable {value} used in formula position", line)
            self.next()
            if value.startswith(_FVAR_PREFIXES):
                return FVar(value)
            return AVar(value)
        if kind == "LPAR":
            self.next()
            f = self.template()
            self.expect("RPAR")
            return f
        raise _DslSyntaxError(f"expected a formula template, found {value or kind}", line)

    # -- patterns -------------------------------------------------------

    def ctx_item(self):
        kind, value, _line = self.peek()
        if kind == "IDENT" and value[0].isupper():
            self.next()
            return CtxVar(value)
        if kind == "KW" and value == "box":
            save = self.pos
            self.next()
            idx = self._box_index()
            k2, v2, _ = self.peek()
            if k2 == "IDENT" and v2 and v2[0].isupper():
                self.next()
                return BoxedCtx(v2, idx)
            self.pos = save  # a template that merely starts with box
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
        else:
            kind = OTHER_MODAL
        return RuleSchema(name, tuple(premises), conclusion, kind, provenance="user")

    def skip_to_next_rule(self):
        while self.peek()[0] != "EOF" and not self.at_keyword("rule"):
            self.next()


def parse_rules(text: str):
    """Parse a rule file.  Returns (rules, errors); rules that fail validation
    are reported in errors and omitted, valid ones are still returned."""
    rules: list[RuleSchema] = []
    errors: list[DslValidationError] = []
    try:
        parser = _RuleParser(_tokenize(text))
    except _DslSyntaxError as e:
        return [], [DslValidationError(e.line, None, e.message)]
    while parser.peek()[0] != "EOF":
        if not parser.at_keyword("rule"):
            tok = parser.peek()
            errors.append(DslValidationError(tok[2], None,
                                             f"expected 'rule', found {tok[1] or tok[0]}"))
            parser.next()
            parser.skip_to_next_rule()
            continue
        start_line = parser.peek()[2]
        try:
            rule = parser.rule_block()
        except _DslSyntaxError as e:
            errors.append(DslValidationError(e.line, None, e.message))
            parser.skip_to_next_rule()
            continue
        problems = schema_problems(rule)
        if problems:
            for msg in problems:
                errors.append(DslValidationError(start_line, rule.name, msg))
        else:
            rules.append(rule)
    return rules, errors


# --- printing ---------------------------------------------------------------

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4


def _box_prefix(index: int) -> str:
    return "box" if index == 0 else f"box({index})"


def _ts(t, min_prec: int) -> str:
    if isinstance(t, (FVar, AVar)):
        return t.name
    if isinstance(t, Bot):
        return "false"
    if isinstance(t, Imp) and isinstance(t.right, Bot):
        return "~" + _ts(t.left, _PREC_UNARY)
    if isinstance(t, Imp):
        s, prec = _ts(t.left, _PREC_OR) + " -> " + _ts(t.right, _PREC_IMP), _PREC_IMP
    elif isinstance(t, Or):
        s, prec = _ts(t.left, _PREC_OR) + " | " + _ts(t.right, _PREC_AND), _PREC_OR
    elif isinstance(t, And):
        s, prec = _ts(t.left, _PREC_AND) + " & " + _ts(t.right, _PREC_UNARY), _PREC_AND
    elif isinstance(t, Modal):
        return _box_prefix(t.index) + " " + _ts(t.body, _PREC_UNARY)
    else:
        raise TypeError(f"not a template: {t!r}")
    return "(" + s + ")" if prec < min_prec else s


def template_text(t) -> str:
    return _ts(t, _PREC_IMP)


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
