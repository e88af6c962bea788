"""Concrete syntax for .wt terms and types."""

import pytest

from writ import (
    NAT,
    App,
    Arrow,
    Cons,
    Func,
    Lam,
    ParseError,
    Var,
    app,
    list_term,
    numeral,
    parse_term,
    parse_type,
)
from writ.syntax import LIST


def test_parse_numeral_and_list_literals():
    assert parse_term("0") == numeral(0)
    assert parse_term("12") == numeral(12)
    assert parse_term("[]") == list_term([])
    assert parse_term("[3,1,4]") == list_term([3, 1, 4])
    # a complete constructor spine over literals is the literal it spells
    assert parse_term("succ (succ zero)") == numeral(2)
    assert parse_term("cons (cons nil 1) (succ 1)") == list_term([1, 2])
    assert parse_term("succ 0 0") == app(Cons("succ"), numeral(0), numeral(0))


def test_application_associates_left():
    assert parse_term("add 1 2") == app(Func("add"), numeral(1), numeral(2))
    assert parse_term("f x y") == app(Var("f"), Var("x"), Var("y"))


def test_lambda_body_extends_right():
    t = parse_term("fn x:Nat => succ x")
    assert t == Lam("x", NAT, App(Cons("succ"), Var("x")))
    nested = parse_term("fn x:Nat => fn y:Nat => x")
    assert nested == Lam("x", NAT, Lam("y", NAT, Var("x")))


def test_lambda_as_argument_needs_parens():
    t = parse_term("rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 3")
    head, args = t, []
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fun
    assert head == Func("rec[Nat]")
    assert len(args) == 3


def test_indexed_symbols_take_a_type_argument():
    assert parse_term("rec[Nat]") == Func("rec[Nat]")
    assert parse_term("rec[Nat->Nat]") == Func("rec[Nat->Nat]")
    assert parse_term("fold[List]") == Func("fold[List]")
    # the index normalizes through type rendering
    assert parse_term("rec[(Nat)]") == Func("rec[Nat]")


def test_indexed_symbols_require_adjacent_bracket():
    with pytest.raises(ParseError):
        parse_term("rec [Nat] 0")
    with pytest.raises(ParseError):
        parse_term("rec")
    with pytest.raises(ParseError):
        parse_term("fold 0")


def test_known_symbols_parse_as_symbols_not_vars():
    assert parse_term("succ") == Cons("succ")
    assert parse_term("cons") == Cons("cons")
    # the constant constructors are literals
    assert parse_term("zero") == numeral(0)
    assert parse_term("nil") == list_term([])
    assert parse_term("len") == Func("len")
    assert parse_term("bar") == Func("bar")
    assert parse_term("alpha") == Func("alpha")
    # unknown identifiers stay variables; bar1 is internal, not reserved
    assert parse_term("bar1") == Var("bar1")
    assert parse_term("widget") == Var("widget")


def test_reserved_names_cannot_bind():
    for bad in ("fn succ:Nat => succ", "fn rec:Nat => rec", "fn fn:Nat => 0"):
        with pytest.raises(ParseError):
            parse_term(bad)


def test_comments_and_whitespace_are_skipped():
    src = """-- leading note
    add 1 -- trailing note
      2
    """
    assert parse_term(src) == app(Func("add"), numeral(1), numeral(2))


def test_parse_type_right_associative():
    assert parse_type("Nat") == NAT
    assert parse_type("List") == LIST
    assert parse_type("Nat->Nat->Nat") == Arrow(NAT, Arrow(NAT, NAT))
    assert parse_type("(Nat->Nat)->Nat") == Arrow(Arrow(NAT, NAT), NAT)


@pytest.mark.parametrize("parse, text, line, column, message", [
    (parse_term, "add 1 %", 1, 7, "unexpected character '%'"),
    (parse_term, "0\n  @", 2, 3, "unexpected character '@'"),
    (parse_term, "", 1, 1, "expected a term, got 'end of input'"),
    (parse_term, "(", 1, 2, "expected a term, got 'end of input'"),
    (parse_term, "fn 3", 1, 4, "expected a variable name, got '3'"),
    (parse_term, "fn succ:Nat => 0", 1, 4, "'succ' is reserved"),
    (parse_term, "fn x Nat", 1, 6, "expected ':', got 'Nat'"),
    (parse_term, "fn x:Foo => x", 1, 6, "expected a type, got 'Foo'"),
    (parse_term, "fn x:Nat 0", 1, 10, "expected '=>', got '0'"),
    (parse_term, "[1,]", 1, 4, "expected a numeral, got ']'"),
    (parse_term, "[,1]", 1, 2, "expected a numeral, got ','"),
    (parse_term, "[1 2]", 1, 4, "expected ',' or ']'"),
    (parse_term, "[1,2", 1, 5, "expected ',' or ']'"),
    (parse_term, "rec [Nat]", 1, 1, "'rec' needs a type index, e.g. rec[Nat]"),
    (parse_term, "rec", 1, 1, "'rec' needs a type index, e.g. rec[Nat]"),
    (parse_term, "rec[Nat", 1, 8, "expected ']', got 'end of input'"),
    (parse_term, "add 1 2)", 1, 8, "unexpected trailing input ')'"),
    (parse_term, "fn x:(Nat => x", 1, 11, "expected ')', got '=>'"),
    # a byte-order mark is not whitespace
    (parse_term, "\ufeff0", 1, 1, "unexpected character '\\ufeff'"),
    (parse_type, "Nat->", 1, 6, "expected a type, got 'end of input'"),
    (parse_type, "Nat Nat", 1, 5, "unexpected trailing input 'Nat'"),
    (parse_type, "(Nat", 1, 5, "expected ')', got 'end of input'"),
])
def test_parse_errors_carry_position(parse, text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"{line}:{column}: {message}"


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_term("add 1 2)")
    with pytest.raises(ParseError):
        parse_type("Nat->")
    with pytest.raises(ParseError):
        parse_term("")


def test_unclosed_delimiters_rejected():
    for bad in ("(add 1 2", "[1,2", "fn x:Nat =>"):
        with pytest.raises(ParseError):
            parse_term(bad)


def test_list_literal_forms():
    with pytest.raises(ParseError):
        parse_term("[1,]")
    with pytest.raises(ParseError):
        parse_term("[,1]")
    assert parse_term("[5]") == list_term([5])
