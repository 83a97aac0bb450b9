"""Formulas, multisets and sequents for intuitionistic modal propositional logic.

The language has falsum, atoms, the connectives ``&``, ``|``, ``->`` and an
indexed family of box operators ``[0]``, ``[1]``, ...  Negation is not a
constructor: ``~phi`` is read and printed as ``phi -> false``.  Every value in
this module is immutable, so formulas, multisets and sequents can be shared
freely between concurrent searches.

Formulas are hash-consed: every constructor call goes through one intern
table keyed by the class and the fields, so equal formulas are one object and
formula equality is identity.  So a node hashes by identity and stores no
hash of its own.  Hashing and comparing cost O(1) at any depth.  The table
lives for the whole process.

A node is interned after its children, so it fixes two more values from
theirs when it is built: its :func:`sort_key` and its connective counts
(falsums, atoms, ands, ors, implications, boxes).  The key, the
:func:`degree` and a ``WeightFunction``'s weight are then read in O(1) at
any depth.  A template, a node with a metavariable below it, has neither
value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class ParseError(Exception):
    """Malformed formula, sequent or rule text; ``position`` is a 0-based
    offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


# (class, *fields) -> the one node with that structure
_TABLE: dict = {}


def _intern(key: tuple):
    """Build the node for ``key`` and enter it in the table, unless another
    caller entered one first; either way return the table's node.  The node's
    sort key and counts come from its children's, which a template's
    metavariable child lacks: a template gets neither."""
    cls = key[0]
    node = object.__new__(cls)
    for name, value in zip(cls._fields, key[1:]):
        object.__setattr__(node, name, value)
    tag, own = _OWN[cls]
    try:
        if cls is Atom or cls is Bot:
            sk, counts = (tag, *key[1:]), own
        elif cls is Modal:
            body = key[2]
            sk = (tag, key[1], body._sort_key)
            counts = tuple(a + b for a, b in zip(body._counts, own))
        else:
            left, right = key[1], key[2]
            sk = (tag, left._sort_key, right._sort_key)
            counts = tuple(a + b + c for a, b, c in zip(left._counts, right._counts, own))
    except AttributeError:  # a template
        return _TABLE.setdefault(key, node)
    object.__setattr__(node, "_sort_key", sk)
    object.__setattr__(node, "_counts", counts)
    return _TABLE.setdefault(key, node)


class Formula:
    """Base of the formula nodes.  Build nodes only through the subclass
    constructors, which return the interned node for their arguments.

    ``_sort_key`` and ``_counts`` are set when the node is interned (see
    :func:`_intern`): ``_counts`` holds the number of falsums, atoms, ands,
    ors, implications and boxes in the formula, the order of their sort
    keys' tags."""

    __slots__ = ("_sort_key", "_counts")
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __str__(self) -> str:
        return print_formula(self)


class Bot(Formula):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        node = _TABLE.get(key)
        return node if node is not None else _intern(key)


class Atom(Formula):
    __slots__ = ("name",)
    _fields = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        node = _TABLE.get(key)
        return node if node is not None else _intern(key)


class _Binary(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        node = _TABLE.get(key)
        return node if node is not None else _intern(key)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class Modal(Formula):
    __slots__ = ("index", "body")
    _fields = ("index", "body")

    def __new__(cls, index: int, body: Formula):
        key = (cls, index, body)
        node = _TABLE.get(key)
        return node if node is not None else _intern(key)


# class -> (its sort key's tag t, the counts of the node alone: 1 at t)
_OWN = {cls: (t, tuple(int(i == t) for i in range(6)))
        for t, cls in enumerate((Bot, Atom, And, Or, Imp, Modal))}


def neg(f: Formula) -> Formula:
    return Imp(f, Bot())


def sort_key(f: Formula):
    """Total structural order on formulas; fixes all iteration orders."""
    try:
        return f._sort_key
    except AttributeError:
        raise TypeError(f"not a formula: {f!r}") from None


def degree(f: Formula) -> int:
    """Degree of a formula: 0 for falsum, 1 for atoms, +1 per operator."""
    counts = f._counts
    return sum(counts) - counts[0]


def subformulas(f: Formula) -> set[Formula]:
    out, todo = set(), [f]
    while todo:
        g = todo.pop()
        if g not in out:
            out.add(g)
            if isinstance(g, _Binary):
                todo += (g.left, g.right)
            elif isinstance(g, Modal):
                todo.append(g.body)
    return out


class FMultiset:
    """Immutable finite multiset of formulas with canonical iteration order.

    A multiset keeps only its multiplicities; equality and hashing do not
    depend on any order.  Iteration, printing and all derived algorithms
    follow the structural order given by :func:`sort_key`, so every consumer
    is deterministic.  That order is computed at each use, since most
    multisets the search builds are only matched, never printed, and few are
    read in order twice; the hash is computed on first use and kept.  Code
    whose result cannot depend on order reads :meth:`pairs` or
    :meth:`distinct` instead, which never sort.
    """

    __slots__ = ("_counts", "_hash")

    def __new__(cls, formulas=()):
        counts: dict = {}
        for f in formulas:
            counts[f] = counts.get(f, 0) + 1
        return _from_counts(counts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle would assign the slots
        return _from_counts, (dict(self._counts),)

    def items(self):
        """Pairs (formula, multiplicity) in canonical order."""
        counts = self._counts
        return tuple((f, counts[f]) for f in sorted(counts, key=sort_key))

    def pairs(self):
        """Read-only view of the pairs (formula, multiplicity), in no fixed order."""
        return self._counts.items()

    def distinct(self):
        """Read-only view of the distinct formulas, in no fixed order."""
        return self._counts.keys()

    def support(self):
        """Distinct formulas in canonical order."""
        return tuple(f for f, _ in self.items())

    def count(self, f: Formula) -> int:
        return self._counts.get(f, 0)

    def __iter__(self):
        for f, n in self.items():
            for _ in range(n):
                yield f

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __contains__(self, f: Formula) -> bool:
        return f in self._counts

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FMultiset) and self._counts == other._counts)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._counts.items()))
            _SET_HASH(self, h)
        return h

    def __repr__(self) -> str:
        return "{" + ", ".join(print_formula(f) for f in self) + "}"

    def union(self, other) -> "FMultiset":
        """Multiset union: multiplicities add up."""
        out = dict(self._counts)
        pairs = other._counts.items() if isinstance(other, FMultiset) else ((f, 1) for f in other)
        for f, n in pairs:
            out[f] = out.get(f, 0) + n
        return _from_counts(out)

    def add(self, f: Formula, k: int = 1) -> "FMultiset":
        out = dict(self._counts)
        out[f] = out.get(f, 0) + k
        return _from_counts(out)

    def remove(self, f: Formula, k: int = 1) -> "FMultiset":
        """Remove exactly ``k`` occurrences; insufficient multiplicity is an error."""
        have = self._counts.get(f, 0)
        if k < 0 or have < k:
            raise ValueError(f"cannot remove {k} x {print_formula(f)} (have {have})")
        out = dict(self._counts)
        if have == k:
            del out[f]
        else:
            out[f] = have - k
        return _from_counts(out)

    def diff(self, other: "FMultiset") -> "FMultiset":
        """Saturating multiset difference."""
        theirs = other._counts
        out = {}
        for f, n in self._counts.items():
            m = n - theirs.get(f, 0)
            if m > 0:
                out[f] = m
        return _from_counts(out)

    def issubset(self, other: "FMultiset") -> bool:
        theirs = other._counts
        return all(theirs.get(f, 0) >= n for f, n in self._counts.items())


# the slots' own setters, which FMultiset.__setattr__ does not reach
_SET_COUNTS, _SET_HASH = (
    getattr(FMultiset, name).__set__ for name in FMultiset.__slots__)


def _from_counts(counts: dict) -> FMultiset:
    """The multiset with multiplicities ``counts`` (all positive).  It keeps
    ``counts`` itself, so the caller must not change the dict afterwards."""
    ms = object.__new__(FMultiset)
    _SET_COUNTS(ms, counts)
    _SET_HASH(ms, None)
    return ms


EMPTY = FMultiset()


@dataclass(frozen=True)
class Sequent:
    """Single-conclusion sequent: a multiset antecedent, at most one succedent."""

    antecedent: FMultiset
    succedent: Formula | None = None

    def __str__(self) -> str:
        return print_sequent(self)


def interpret(s: Sequent) -> Formula:
    """Formula reading of a sequent: conjunction of the antecedent implies the
    succedent; an empty succedent reads as falsum, an empty antecedent yields
    the succedent side directly."""
    succ = s.succedent if s.succedent is not None else Bot()
    if not s.antecedent:
        return succ
    conj = None
    for f in s.antecedent:
        conj = f if conj is None else And(conj, f)
    return Imp(conj, succ)


# --- one formula grammar ---------------------------------------------------
#
# Sequents and rule files write formulas in one language: "->" binds loosest
# and is right-associative, then come "|" and "&", both left-associative,
# then the prefix operators "~" and box.  The two syntaxes differ only in the
# box's spelling, the leaves, and the names of tokens, which a Grammar holds.
# Its parser and printer keep their pending work on explicit stacks, so no
# nesting depth is too deep for them.

_BOT = Bot()
_OPEN = (0,)  # an open parenthesis on the parser's stack
_PREFIX = 4   # binding strength of "~" and box
# class -> (binding strength, strength needed on the left, on the right, text)
_INFIX = {Imp: (1, 2, 1, " -> "), Or: (2, 2, 3, " | "), And: (3, 3, 4, " & ")}


class Grammar:
    """One spelling of the formula language.

    Scanning: ``lexemes`` is a regular expression for one lexeme and ``skip``
    one for what may follow it (whitespace, comments).  A lexeme is a symbol
    of ``symbols``, a word (a keyword of ``words``, else IDENT), or else
    ``other(lexeme, offset)`` makes its token or raises.  A token is
    ``(kind, value, position)``.  Parsing: ``operand(toks, i)`` reads the
    leaf or prefix operator at token ``i`` and returns it with the index
    after it: the leaf, -1 for ``~``, a box index, or None when no operand
    starts there.  A parse error names an operand ``noun``.  Printing:
    ``box(index)`` is a box prefix's text, and a leaf of a class in
    ``leaves`` prints as its name.
    """

    def __init__(self, lexemes, skip, symbols, words, other, operand, noun, box, leaves):
        self.scan = re.compile(f"({lexemes})({skip})")
        self.skip = re.compile(skip)
        self.symbols, self.words, self.other = symbols, words, other
        self.operand, self.noun = operand, noun
        self.box, self.leaves = box, leaves
        # token kind -> (binding strength, lowest strength it closes, node)
        self.binary = {symbols["->"]: (1, 2, Imp), symbols["|"]: (2, 2, Or),
                       symbols["&"]: (3, 3, And)}

    def tokens(self, text: str) -> list:
        """The tokens of ``text`` with their offsets, ending in an EOF token.
        Lexemes and skips alternate from the first skip to the end, so a
        running sum of their lengths gives each offset."""
        symbols, words, other = self.symbols, self.words, self.other
        toks = []
        at = self.skip.match(text).end()
        for lexeme, skipped in self.scan.findall(text, at):
            kind = symbols.get(lexeme)
            if kind is not None:
                toks.append((kind, None, at))
            elif lexeme[0].isalpha() or lexeme[0] == "_":
                toks.append((words.get(lexeme, "IDENT"), lexeme, at))
            else:
                toks.append(other(lexeme, at))
            at += len(lexeme) + len(skipped)
        toks.append(("EOF", None, len(text)))
        return toks

    def parse(self, toks: list, i: int):
        """Parse the formula that starts at token ``i`` by precedence
        climbing; return it and the index of the first token after it."""
        operand, binary = self.operand, self.binary
        stack = []  # open parentheses, prefix operators, (strength, node, left)
        while True:
            kind, value, at = toks[i]
            if kind == "LPAR":
                stack.append(_OPEN)
                i += 1
                continue
            f, i = operand(toks, i)
            if f is None:
                raise ParseError(f"expected {self.noun}, found {value or kind}", at)
            if f.__class__ is int:
                stack.append((_PREFIX, f))
                continue
            # f is an operand: build what it closes until an operator follows
            while True:
                while stack and stack[-1][0] == _PREFIX:
                    index = stack.pop()[1]
                    f = Imp(f, _BOT) if index < 0 else Modal(index, f)
                kind, value, at = toks[i]
                op = binary.get(kind)
                if op is not None:
                    strength, lowest, node = op
                    while stack and stack[-1][0] >= lowest:
                        _, make, left = stack.pop()
                        f = make(left, f)
                    stack.append((strength, node, f))
                    i += 1
                    break
                while stack and stack[-1][0]:
                    _, make, left = stack.pop()
                    f = make(left, f)
                if not stack:
                    return f, i
                if kind != "RPAR":
                    raise ParseError(f"expected RPAR, found {value or kind}", at)
                stack.pop()
                i += 1

    def text(self, f) -> str:
        """Minimal-parentheses text of ``f``; inverse of :meth:`parse`."""
        box, leaves = self.box, self.leaves
        out = []
        todo = []  # (text, then a formula or None, the strength it needs)
        need = 1
        while True:
            while f is not None:  # down the left spine; right sides wait on todo
                cls = f.__class__
                if cls in leaves:
                    out.append(f.name)
                    break
                op = _INFIX.get(cls)
                if op is not None:
                    if cls is Imp and f.right is _BOT:
                        out.append("~")
                        f, need = f.left, _PREFIX
                        continue
                    strength, left, right, sep = op
                    if strength < need:
                        out.append("(")
                        todo.append((")", None, 0))
                    todo.append((sep, f.right, right))
                    f, need = f.left, left
                elif cls is Modal:
                    out.append(box(f.index))
                    f, need = f.body, _PREFIX
                elif cls is Bot:
                    out.append("false")
                    break
                else:
                    raise TypeError(f"not {self.noun}: {f!r}")
            if not todo:
                return "".join(out)
            text, f, need = todo.pop()
            out.append(text)


def _box_token(lexeme: str, at: int):
    """The token of a lexeme that is neither a symbol nor a word: ``[INT]``
    is a box; anything else is an error."""
    if lexeme[0] != "[":
        raise ParseError(f"unexpected character {lexeme[0]!r}", at)
    if lexeme[-1] != "]":
        raise ParseError("unterminated modal prefix", at)
    return "BOX", int(lexeme[1:-1] or 0), at


def _formula_operand(toks, i):
    kind, value, _ = toks[i]
    if kind == "IDENT":
        return Atom(value), i + 1
    if kind == "NOT":
        return -1, i + 1
    if kind == "BOX":
        return value, i + 1
    if kind == "FALSE":
        return _BOT, i + 1
    return None, i


_FORMULA = Grammar(
    r"[^\W\d]\w*|\[\d*\]?|=>|->|\S", r"\s*",
    {"=>": "SEQARROW", "->": "ARROW", "&": "AND", "|": "OR", "~": "NOT",
     "(": "LPAR", ")": "RPAR", ",": "COMMA"},
    {"false": "FALSE"}, _box_token,
    _formula_operand, "a formula",
    lambda index: "[]" if index == 0 else f"[{index}]", frozenset([Atom]),
)


def _expect(toks, i, kind, value=None) -> int:
    """The index after token ``i``, which must be of ``kind`` and, if
    ``value`` is given, have that value."""
    t = toks[i]
    if t[0] != kind or (value is not None and t[1] != value):
        raise ParseError(f"expected {value or kind}, found {t[1] or t[0]}", t[2])
    return i + 1


def parse_formula(text: str) -> Formula:
    toks = _FORMULA.tokens(text)
    f, i = _FORMULA.parse(toks, 0)
    _expect(toks, i, "EOF")
    return f


def parse_sequent(text: str, formulas: dict | None = None) -> Sequent:
    """Parse ``f1, f2, ... => g`` (either side may be empty).

    ``formulas`` is an optional memo from formula text to formula, shared by
    the caller across many sequents that repeat formulas, such as the nodes
    of one derivation.  With it, the text is split at ``=>`` and ``,`` and
    each distinct stripped piece is parsed once with :func:`parse_formula`.
    The split is exact because no formula token contains ``=>`` or ``,``:
    a text the token parser accepts has them exactly where it reads its
    separators, and a piece holding a second ``=>`` does not parse as a
    formula.  On an empty piece or any ParseError the whole text is parsed
    again as tokens, so the result and every error message and offset are
    the same with or without the memo.
    """
    if formulas is not None:
        left, arrow, right = text.partition("=>")
        if arrow:
            try:
                ante = ([_memo_formula(piece, formulas) for piece in left.split(",")]
                        if left.strip() else [])
                succ = _memo_formula(right, formulas) if right.strip() else None
            except ParseError:
                pass
            else:
                return Sequent(FMultiset(ante), succ)
    toks = _FORMULA.tokens(text)
    ante, i = [], 0
    if toks[0][0] != "SEQARROW":
        f, i = _FORMULA.parse(toks, 0)
        ante.append(f)
        while toks[i][0] == "COMMA":
            f, i = _FORMULA.parse(toks, i + 1)
            ante.append(f)
    i = _expect(toks, i, "SEQARROW")
    succ = None
    if toks[i][0] != "EOF":
        succ, i = _FORMULA.parse(toks, i)
    _expect(toks, i, "EOF")
    return Sequent(FMultiset(ante), succ)


def _memo_formula(piece: str, formulas: dict) -> Formula:
    """The formula of one piece of a split sequent text, parsed at most once."""
    piece = piece.strip()
    if not piece:
        raise ParseError("empty formula", 0)  # caught: the token parser reports it
    f = formulas.get(piece)
    if f is None:
        f = formulas[piece] = parse_formula(piece)
    return f


# --- printing --------------------------------------------------------------

def print_formula(f: Formula) -> str:
    """Minimal-parentheses text; inverse of :func:`parse_formula`."""
    return _FORMULA.text(f)


def print_sequent(s: Sequent, texts: dict | None = None) -> str:
    """Text of ``s``; inverse of :func:`parse_sequent`.

    ``texts`` is an optional memo from formula to its text, shared by the
    caller across many sequents that repeat formulas, such as the nodes of one
    derivation, so that each distinct formula is printed once.  The result is
    the same with or without it.
    """
    if texts is None:
        texts = {}
    left = ", ".join([_memo_text(f, texts) for f in s.antecedent])
    right = _memo_text(s.succedent, texts) if s.succedent is not None else ""
    if left and right:
        return f"{left} => {right}"
    if left:
        return f"{left} =>"
    if right:
        return f"=> {right}"
    return "=>"


def _memo_text(f: Formula, texts: dict) -> str:
    t = texts.get(f)
    if t is None:
        t = texts[f] = print_formula(f)
    return t
