"""Formulas, multisets and sequents for intuitionistic modal propositional logic.

The language has falsum, atoms, the connectives ``&``, ``|``, ``->`` and an
indexed family of box operators ``[0]``, ``[1]``, ...  Negation is not a
constructor: ``~phi`` is read and printed as ``phi -> false``.  Every value in
this module is immutable, so formulas, multisets and sequents can be shared
freely between concurrent searches.

Formulas are hash-consed: every constructor call goes through one intern
table keyed by the class and the fields, so equal formulas are one object and
formula equality is identity.  So a node hashes by identity and stores no
hash of its own; it caches its :func:`sort_key` on first use.  Hashing and
comparing cost O(1) at any depth.  The table lives for the whole process, as
did the unbounded ``sort_key`` cache it replaces, and as does the weight cache
of a ``WeightFunction``: those already kept every formula that was put in a
multiset or weighed alive.
"""

from __future__ import annotations

from dataclasses import dataclass


class ParseError(Exception):
    """Malformed formula or sequent text; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


# (class, *fields) -> the one node with that structure
_TABLE: dict = {}


def _intern(key: tuple):
    """Build the node for ``key`` and enter it in the table, unless another
    caller entered one first; either way return the table's node."""
    cls = key[0]
    node = object.__new__(cls)
    for name, value in zip(cls._fields, key[1:]):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_sort_key", None)
    return _TABLE.setdefault(key, node)


class Formula:
    """Base of the formula nodes.  Build nodes only through the subclass
    constructors, which return the interned node for their arguments."""

    __slots__ = ("_sort_key",)
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


def neg(f: Formula) -> Formula:
    return Imp(f, Bot())


def sort_key(f: Formula):
    """Total structural order on formulas; fixes all iteration orders."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    key = f._sort_key
    if key is not None:
        return key
    if isinstance(f, Bot):
        key = (0,)
    elif isinstance(f, Atom):
        key = (1, f.name)
    elif isinstance(f, And):
        key = (2, sort_key(f.left), sort_key(f.right))
    elif isinstance(f, Or):
        key = (3, sort_key(f.left), sort_key(f.right))
    elif isinstance(f, Imp):
        key = (4, sort_key(f.left), sort_key(f.right))
    else:
        key = (5, f.index, sort_key(f.body))
    object.__setattr__(f, "_sort_key", key)
    return key


def degree(f: Formula) -> int:
    """Degree of a formula: 0 for falsum, 1 for atoms, +1 per operator."""
    if isinstance(f, Bot):
        return 0
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Modal):
        return degree(f.body) + 1
    return degree(f.left) + degree(f.right) + 1


def subformulas(f: Formula) -> set[Formula]:
    out = {f}
    if isinstance(f, (And, Or, Imp)):
        out |= subformulas(f.left) | subformulas(f.right)
    elif isinstance(f, Modal):
        out |= subformulas(f.body)
    return out


class FMultiset:
    """Immutable finite multiset of formulas with canonical iteration order.

    A multiset keeps only its multiplicities; equality and hashing do not
    depend on any order.  Iteration, printing and all derived algorithms
    follow the structural order given by :func:`sort_key`, so every consumer
    is deterministic.  That order, like the hash, is computed on first use and
    kept: most multisets the search builds are only matched, never printed.
    Code whose result cannot depend on order reads :meth:`pairs` or
    :meth:`distinct` instead, which never sort.
    """

    __slots__ = ("_counts", "_items", "_size", "_hash")

    def __new__(cls, formulas=()):
        counts: dict = {}
        for f in formulas:
            counts[f] = counts.get(f, 0) + 1
        return _from_counts(counts)

    def items(self):
        """Pairs (formula, multiplicity) in canonical order."""
        items = self._items
        if items is None:
            counts = self._counts
            items = self._items = tuple((f, counts[f]) for f in sorted(counts, key=sort_key))
        return items

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
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, f: Formula) -> bool:
        return f in self._counts

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FMultiset) and self._counts == other._counts)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._counts.items()))
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


def _from_counts(counts: dict) -> FMultiset:
    """The multiset with multiplicities ``counts`` (all positive).  It keeps
    ``counts`` itself, so the caller must not change the dict afterwards."""
    ms = object.__new__(FMultiset)
    ms._counts = counts
    ms._items = None
    ms._size = sum(counts.values())
    ms._hash = None
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


# --- parsing ---------------------------------------------------------------

def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "[":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "]":
                idx = int(text[i + 1:j]) if j > i + 1 else 0
                toks.append(("BOX", idx, i))
                i = j + 1
                continue
            raise ParseError("unterminated modal prefix", i)
        if text[i:i + 2] == "=>":
            toks.append(("SEQARROW", None, i))
            i += 2
            continue
        if text[i:i + 2] == "->":
            toks.append(("ARROW", None, i))
            i += 2
            continue
        if c in "&|~(),":
            kind = {"&": "AND", "|": "OR", "~": "NOT", "(": "LPAR", ")": "RPAR", ",": "COMMA"}[c]
            toks.append((kind, None, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(("FALSE" if word == "false" else "IDENT", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("EOF", None, n))
    return toks


class _FormulaParser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind}, found {t[1] or t[0]}", t[2])
        return t

    def formula(self):
        left = self.disjunction()
        if self.peek()[0] == "ARROW":
            self.next()
            return Imp(left, self.formula())  # right associative
        return left

    def disjunction(self):
        f = self.conjunction()
        while self.peek()[0] == "OR":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self):
        f = self.unary()
        while self.peek()[0] == "AND":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self):
        kind, value, pos = self.peek()
        if kind == "NOT":
            self.next()
            return Imp(self.unary(), Bot())
        if kind == "BOX":
            self.next()
            return Modal(value, self.unary())
        if kind == "FALSE":
            self.next()
            return Bot()
        if kind == "IDENT":
            self.next()
            return Atom(value)
        if kind == "LPAR":
            self.next()
            f = self.formula()
            self.expect("RPAR")
            return f
        raise ParseError(f"expected a formula, found {value or kind}", pos)


def parse_formula(text: str) -> Formula:
    p = _FormulaParser(_tokenize(text))
    f = p.formula()
    p.expect("EOF")
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
    p = _FormulaParser(_tokenize(text))
    ante = []
    if p.peek()[0] != "SEQARROW":
        ante.append(p.formula())
        while p.peek()[0] == "COMMA":
            p.next()
            ante.append(p.formula())
    p.expect("SEQARROW")
    succ = None
    if p.peek()[0] != "EOF":
        succ = p.formula()
    p.expect("EOF")
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

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4


def _pf(f: Formula, min_prec: int) -> str:
    if isinstance(f, Imp) and isinstance(f.right, Bot):
        return "~" + _pf(f.left, _PREC_UNARY)
    if isinstance(f, Imp):
        s = _pf(f.left, _PREC_OR) + " -> " + _pf(f.right, _PREC_IMP)
        prec = _PREC_IMP
    elif isinstance(f, Or):
        s = _pf(f.left, _PREC_OR) + " | " + _pf(f.right, _PREC_AND)
        prec = _PREC_OR
    elif isinstance(f, And):
        s = _pf(f.left, _PREC_AND) + " & " + _pf(f.right, _PREC_UNARY)
        prec = _PREC_AND
    elif isinstance(f, Modal):
        return ("[]" if f.index == 0 else f"[{f.index}]") + _pf(f.body, _PREC_UNARY)
    elif isinstance(f, Atom):
        return f.name
    elif isinstance(f, Bot):
        return "false"
    else:
        raise TypeError(f"not a formula: {f!r}")
    return "(" + s + ")" if prec < min_prec else s


def print_formula(f: Formula) -> str:
    """Minimal-parentheses text; inverse of :func:`parse_formula`."""
    return _pf(f, _PREC_IMP)


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
