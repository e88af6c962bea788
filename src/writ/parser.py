"""Reader for the concrete .wt syntax.

Grammar sketch:

    type    ::= "Nat" | "List" | type "->" type | "(" type ")"
    term    ::= "fn" ident ":" type "=>" term | appterm
    appterm ::= appterm atom | atom
    atom    ::= ident | numeral | "[" numerals "]" | "(" term ")"

Tokens are (kind, text, offset) tuples from one regex scan, which ends in
an "eof" token and stops at the first character no token spells. Arrows
associate right, application associates left. "--" starts a line comment.
The reserved identifiers resolve to constructor/function symbols; "rec"
and "fold" must be followed immediately by a bracketed type index and
resolve to the monomorphic family member, e.g. rec[Nat->Nat]. Numerals,
list brackets, zero, nil and each complete application are folded into
literal nodes where they spell one (see syntax.fold_literal).
"""

from __future__ import annotations

import re
from typing import TypeVar

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
    | (?P<eof>\Z)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)

_RESERVED = CONS_NAMES | FUNC_NAMES | _INDEXED | {"fn"}
_BASE_TYPES = {"Nat": NAT, "List": LIST}
Token = tuple[str, str, int]  # (kind, text, offset)
T = TypeVar("T")


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", *_line_col(text, m.start()))
        if kind != "skip":
            tokens.append((kind, m.group(), m.start()))
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

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok[0] != kind:
            raise self.error(f"expected {what}, got {tok[1] or 'end of input'!r}", tok)
        return tok

    def error(self, message: str, tok: Token) -> ParseError:
        return ParseError(message, *_line_col(self.text, tok[2]))

    # ---- types

    def type_(self) -> Ty:
        left = self.type_atom()
        if self.peek()[0] == "arrow":
            self.next()
            return Arrow(left, self.type_())
        return left

    def type_atom(self) -> Ty:
        tok = self.next()
        if tok[1] in _BASE_TYPES:
            return _BASE_TYPES[tok[1]]
        if tok[0] == "lparen":
            inner = self.type_()
            self.expect("rparen", "')'")
            return inner
        raise self.error(f"expected a type, got {tok[1] or 'end of input'!r}", tok)

    # ---- terms

    def term(self) -> Term:
        if self.peek()[1] != "fn":
            return self.appterm()
        self.next()
        name = self.expect("ident", "a variable name")
        if name[1] in _RESERVED:
            raise self.error(f"{name[1]!r} is reserved", name)
        self.expect("colon", "':'")
        ty = self.type_()
        self.expect("darrow", "'=>'")
        return Lam(name[1], ty, self.term())

    def appterm(self) -> Term:
        t = self.atom()
        # only an identifier spells "fn", which starts a term but no atom
        while (tok := self.peek())[0] in ("num", "lparen", "lbracket", "ident") and tok[1] != "fn":
            t = App(t, self.atom())
        # folded only once complete: "succ 0 0" stays the spine it is written as
        return fold_literal(t)

    def atom(self) -> Term:
        tok = self.next()
        kind = tok[0]
        if kind == "num":
            return numeral(int(tok[1]))
        if kind == "lparen":
            inner = self.term()
            self.expect("rparen", "')'")
            return inner
        if kind == "lbracket":
            return self.list_literal()
        if kind == "ident":
            return self.ident_atom(tok)
        raise self.error(f"expected a term, got {tok[1] or 'end of input'!r}", tok)

    def list_literal(self) -> Term:
        items: list[int] = []
        if self.peek()[0] == "rbracket":
            self.next()
            return list_term(items)
        while True:
            items.append(int(self.expect("num", "a numeral")[1]))
            tok = self.next()
            if tok[0] == "rbracket":
                return list_term(items)
            if tok[0] != "comma":
                raise self.error("expected ',' or ']'", tok)

    def ident_atom(self, tok: Token) -> Term:
        _, name, offset = tok
        if name in CONS_NAMES:
            return fold_literal(Cons(name))
        if name in FUNC_NAMES:
            return Func(name)
        if name in _INDEXED:
            # the index bracket must touch the symbol: rec[Nat], not rec [Nat]
            if not self.text.startswith("[", offset + len(name)):
                raise self.error(f"{name!r} needs a type index, e.g. {name}[Nat]", tok)
            self.next()
            ty = self.type_()
            self.expect("rbracket", "']'")
            return Func(f"{name}[{render_type(ty)}]")
        return Var(name)

    def end(self, result: T) -> T:
        """result, once the rule that read it has read all of the text."""
        tok = self.peek()
        if tok[0] != "eof":
            raise self.error(f"unexpected trailing input {tok[1]!r}", tok)
        return result


def parse_term(text: str) -> Term:
    """Parse a single term; comments and surrounding whitespace are ignored."""
    p = _Parser(text)
    return p.end(p.term())


def parse_type(text: str) -> Ty:
    """Parse a type in the same syntax used by term annotations."""
    p = _Parser(text)
    return p.end(p.type_())
