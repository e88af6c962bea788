"""Reader for the concrete .wt syntax.

Grammar sketch:

    type    ::= "Nat" | "List" | type "->" type | "(" type ")"
    term    ::= "fn" ident ":" type "=>" term | appterm
    appterm ::= appterm atom | atom
    atom    ::= ident | numeral | "[" numerals "]" | "(" term ")"

Arrows associate right, application associates left. "--" starts a line
comment. The reserved identifiers resolve to constructor/function symbols;
"rec" and "fold" must be followed immediately by a bracketed type index and
resolve to the monomorphic family member, e.g. rec[Nat->Nat]. Numerals,
list brackets, zero, nil and each complete application are folded into
literal nodes where they spell one (see syntax.fold_literal).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .syntax import (
    LIST,
    NAT,
    App,
    Arrow,
    Cons,
    Func,
    Lam,
    Term,
    Ty,
    Var,
    fold_literal,
    list_term,
    numeral,
    render_type,
)

__all__ = ["parse_term", "parse_type", "CONS_NAMES", "FUNC_NAMES"]

CONS_NAMES = frozenset({"zero", "succ", "nil", "cons"})
FUNC_NAMES = frozenset({"add", "mul", "lt", "len", "ext", "bar", "alpha"})
_INDEXED = frozenset({"rec", "fold"})

_TOKEN_RE = re.compile(
    r"""
      (?P<skip>[ \t\r\n]+|--[^\n]*)
    | (?P<arrow>->)
    | (?P<darrow>=>)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<lbracket>\[)
    | (?P<rbracket>\])
    | (?P<comma>,)
    | (?P<colon>:)
    | (?P<num>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(slots=True)  # one per token; immutable by convention
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            line, col = _line_col(text, pos)
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        if m.lastgroup != "skip":
            tokens.append(_Token(m.lastgroup or "", m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _line_col(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    start = text.rfind("\n", 0, offset) + 1
    return line, offset - start + 1


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            self.fail(f"expected {what}, got {tok.text or 'end of input'!r}", tok)
        return tok

    def fail(self, message: str, tok: _Token) -> None:
        line, col = _line_col(self.text, tok.offset)
        raise ParseError(message, line, col)

    # ---- types

    def type_(self) -> Ty:
        left = self.type_atom()
        if self.peek().kind == "arrow":
            self.next()
            return Arrow(left, self.type_())
        return left

    def type_atom(self) -> Ty:
        tok = self.next()
        if tok.kind == "ident" and tok.text == "Nat":
            return NAT
        if tok.kind == "ident" and tok.text == "List":
            return LIST
        if tok.kind == "lparen":
            inner = self.type_()
            self.expect("rparen", "')'")
            return inner
        self.fail(f"expected a type, got {tok.text or 'end of input'!r}", tok)
        raise AssertionError  # unreachable

    # ---- terms

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "fn":
            self.next()
            name = self.expect("ident", "a variable name")
            if name.text in CONS_NAMES | FUNC_NAMES | _INDEXED or name.text == "fn":
                self.fail(f"{name.text!r} is reserved", name)
            self.expect("colon", "':'")
            ty = self.type_()
            self.expect("darrow", "'=>'")
            return Lam(name.text, ty, self.term())
        return self.appterm()

    def appterm(self) -> Term:
        t = self.atom()
        while self._starts_atom(self.peek()):
            t = App(t, self.atom())
        # folded only once complete: "succ 0 0" stays the spine it is written as
        return fold_literal(t)

    @staticmethod
    def _starts_atom(tok: _Token) -> bool:
        if tok.kind in ("num", "lparen", "lbracket"):
            return True
        return tok.kind == "ident" and tok.text != "fn"

    def atom(self) -> Term:
        tok = self.next()
        if tok.kind == "num":
            return numeral(int(tok.text))
        if tok.kind == "lparen":
            inner = self.term()
            self.expect("rparen", "')'")
            return inner
        if tok.kind == "lbracket":
            return self.list_literal()
        if tok.kind == "ident":
            return self.ident_atom(tok)
        self.fail(f"expected a term, got {tok.text or 'end of input'!r}", tok)
        raise AssertionError  # unreachable

    def list_literal(self) -> Term:
        items: list[int] = []
        if self.peek().kind == "rbracket":
            self.next()
            return list_term(items)
        while True:
            tok = self.expect("num", "a numeral")
            items.append(int(tok.text))
            tok = self.next()
            if tok.kind == "rbracket":
                return list_term(items)
            if tok.kind != "comma":
                self.fail("expected ',' or ']'", tok)

    def ident_atom(self, tok: _Token) -> Term:
        name = tok.text
        if name in CONS_NAMES:
            return fold_literal(Cons(name))
        if name in FUNC_NAMES:
            return Func(name)
        if name in _INDEXED:
            # the index bracket must touch the symbol: rec[Nat], not rec [Nat]
            nxt = self.peek()
            if nxt.kind != "lbracket" or nxt.offset != tok.offset + len(name):
                self.fail(f"{name!r} needs a type index, e.g. {name}[Nat]", tok)
            self.next()
            ty = self.type_()
            self.expect("rbracket", "']'")
            return Func(f"{name}[{render_type(ty)}]")
        return Var(name)


def parse_term(text: str) -> Term:
    """Parse a single term; comments and surrounding whitespace are ignored."""
    p = _Parser(text)
    t = p.term()
    tok = p.peek()
    if tok.kind != "eof":
        p.fail(f"unexpected trailing input {tok.text!r}", tok)
    return t


def parse_type(text: str) -> Ty:
    """Parse a type in the same syntax used by term annotations."""
    p = _Parser(text)
    ty = p.type_()
    tok = p.peek()
    if tok.kind != "eof":
        p.fail(f"unexpected trailing input {tok.text!r}", tok)
    return ty
