"""Recursive-descent parser for the mini-Fortran frontend.

Grammar (newline-separated statements)::

    program   := 'program' NAME NL decl* 'begin' NL stmt* 'end' NL?
    decl      := 'param' names NL
               | ('real' | 'integer') vardecl (',' vardecl)* NL
               | 'output' names NL
    vardecl   := NAME [ '(' expr (',' expr)* ')' ]
    stmt      := assign | do | if
    assign    := lvalue '=' expr NL
    do        := 'do' NAME '=' expr ',' expr [',' expr] NL stmt* 'end' 'do' NL
    if        := 'if' '(' cond ')' 'then' NL stmt* ['else' NL stmt*]
                 'end' 'if' NL
    cond      := disj;  disj := conj ('||' conj)*;  conj := atom ('&&' atom)*
    atom      := '!!' atom | expr CMP expr | '(' cond ')'
    expr      := term (('+'|'-') term)*
    term      := factor (('*'|'/') factor)*
    factor    := ['-'] (NUMBER | call | merge | lvalue | NAME | '(' expr ')')
    merge     := 'merge' '(' expr ',' expr ',' cond ')'

``-`` directly before a number is part of the literal (``-2`` is
``Const(-2)``); ``-(2)`` is a negation.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.frontend.lexer import Token, tokenize
from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Cmp,
    Const,
    Expr,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Select,
    UnOp,
    VarRef,
)
from repro.ir.program import ArrayDecl, Program, ScalarDecl
from repro.ir.stmt import Assign, If, Loop, Stmt

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, source: str):
        self.tokens = list(tokenize(source))
        self.pos = 0
        self.arrays: dict[str, ArrayDecl] = {}
        self.scalars: dict[str, ScalarDecl] = {}
        self.params: list[str] = []
        self.outputs: list[str] = []

    # -- token helpers ------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def skip_newlines(self) -> None:
        while self.at("newline"):
            self.next()

    def end_of_stmt(self) -> None:
        if self.at("eof"):
            return
        self.expect("newline")
        self.skip_newlines()

    # -- declarations ------------------------------------------------------
    def parse(self) -> Program:
        self.skip_newlines()
        self.expect("kw", "program")
        name = self.expect("name").text
        self.end_of_stmt()
        while not self.at("kw", "begin"):
            self._decl()
        self.expect("kw", "begin")
        self.end_of_stmt()
        body: list[Stmt] = []
        while not self.at("kw", "end"):
            body.append(self._stmt())
        self.expect("kw", "end")
        self.skip_newlines()
        self.expect("eof")
        return Program(
            name,
            tuple(self.params),
            tuple(self.arrays.values()),
            tuple(self.scalars.values()),
            tuple(body),
            tuple(self.outputs),
        )

    def _names(self) -> list[str]:
        names = [self.expect("name").text]
        while self.at("op", ","):
            self.next()
            names.append(self.expect("name").text)
        return names

    def _decl(self) -> None:
        tok = self.peek()
        if self.at("kw", "param"):
            self.next()
            self.params.extend(self._names())
        elif self.at("kw", "real") or self.at("kw", "integer"):
            dtype = "f8" if self.next().text == "real" else "i8"
            while True:
                name_tok = self.expect("name")
                name = name_tok.text
                if name in self.params or name in self.arrays or name in self.scalars:
                    raise ParseError(
                        f"{name!r} declared twice", name_tok.line, name_tok.col
                    )
                if self.at("op", "("):
                    self.next()
                    extents = [self._expr()]
                    while self.at("op", ","):
                        self.next()
                        extents.append(self._expr())
                    self.expect("op", ")")
                    self.arrays[name] = ArrayDecl(name, tuple(extents), dtype)
                else:
                    self.scalars[name] = ScalarDecl(name, dtype)
                if not self.at("op", ","):
                    break
                self.next()
        elif self.at("kw", "output"):
            self.next()
            self.outputs.extend(self._names())
        else:
            raise ParseError(f"unexpected {tok.text!r} in declarations", tok.line, tok.col)
        self.end_of_stmt()

    # -- statements -------------------------------------------------------------
    def _stmt(self) -> Stmt:
        if self.at("kw", "do"):
            return self._do()
        if self.at("kw", "if"):
            return self._if()
        return self._assign()

    def _assign(self) -> Stmt:
        tok = self.expect("name")
        target: VarRef | ArrayRef
        if self.at("op", "("):
            target = self._array_ref(tok)
        else:
            target = VarRef(tok.text)
        self.expect("op", "=")
        value = self._expr()
        self.end_of_stmt()
        return Assign(target, value)

    def _do(self) -> Stmt:
        self.expect("kw", "do")
        var = self.expect("name").text
        self.expect("op", "=")
        lower = self._expr()
        self.expect("op", ",")
        upper = self._expr()
        step: Expr = Const(1)
        if self.at("op", ","):
            self.next()
            step = self._expr()
        self.end_of_stmt()
        body: list[Stmt] = []
        while not self.at("kw", "end"):
            body.append(self._stmt())
        self.expect("kw", "end")
        self.expect("kw", "do")
        self.end_of_stmt()
        return Loop(var, lower, upper, body, step)

    def _if(self) -> Stmt:
        self.expect("kw", "if")
        self.expect("op", "(")
        cond = self._cond()
        self.expect("op", ")")
        self.expect("kw", "then")
        self.end_of_stmt()
        then: list[Stmt] = []
        orelse: list[Stmt] = []
        while not (self.at("kw", "end") or self.at("kw", "else")):
            then.append(self._stmt())
        if self.at("kw", "else"):
            self.next()
            self.end_of_stmt()
            while not self.at("kw", "end"):
                orelse.append(self._stmt())
        self.expect("kw", "end")
        self.expect("kw", "if")
        self.end_of_stmt()
        return If(cond, then, orelse)

    # -- conditions ----------------------------------------------------------
    def _cond(self) -> Expr:
        left = self._conj()
        parts = [left]
        while self.at("op", "||"):
            self.next()
            parts.append(self._conj())
        return parts[0] if len(parts) == 1 else LogicalOr(parts)

    def _conj(self) -> Expr:
        parts = [self._cond_atom()]
        while self.at("op", "&&"):
            self.next()
            parts.append(self._cond_atom())
        return parts[0] if len(parts) == 1 else LogicalAnd(parts)

    def _cond_atom(self) -> Expr:
        if self.at("op", "!!"):
            self.next()
            return LogicalNot(self._cond_atom())
        if self.at("op", "("):
            # Could be a parenthesised condition or an arithmetic group.
            saved = self.pos
            self.next()
            try:
                inner = self._cond()
                self.expect("op", ")")
                if not self._peek_cmp():
                    return inner
            except ParseError:
                pass
            self.pos = saved
        lhs = self._expr()
        tok = self.peek()
        if tok.kind == "op" and tok.text in _CMP_OPS:
            self.next()
            rhs = self._expr()
            return Cmp(tok.text, lhs, rhs)
        raise ParseError(f"expected comparison, found {tok.text!r}", tok.line, tok.col)

    def _peek_cmp(self) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in _CMP_OPS

    # -- expressions ----------------------------------------------------------
    def _expr(self) -> Expr:
        node = self._term()
        while self.at("op", "+") or self.at("op", "-"):
            op = self.next().text
            node = BinOp(op, node, self._term())
        return node

    def _term(self) -> Expr:
        node = self._factor()
        while self.at("op", "*") or self.at("op", "/"):
            op = self.next().text
            node = BinOp(op, node, self._factor())
        return node

    def _factor(self) -> Expr:
        if self.at("op", "-"):
            self.next()
            if self.peek().kind in ("int", "float"):
                return Const(-self._factor().value)
            return UnOp("-", self._factor())
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Const(int(tok.text))
        if tok.kind == "float":
            self.next()
            return Const(float(tok.text))
        if tok.kind == "kw" and tok.text in ("sqrt", "abs", "min", "max"):
            self.next()
            self.expect("op", "(")
            args = [self._expr()]
            while self.at("op", ","):
                self.next()
                args.append(self._expr())
            self.expect("op", ")")
            return Call(tok.text, args)
        if tok.kind == "kw" and tok.text == "merge":
            self.next()
            self.expect("op", "(")
            if_true = self._expr()
            self.expect("op", ",")
            if_false = self._expr()
            self.expect("op", ",")
            cond = self._cond()
            self.expect("op", ")")
            return Select(cond, if_true, if_false)
        if tok.kind == "name":
            self.next()
            if self.at("op", "("):
                return self._array_ref(tok)
            return VarRef(tok.text)
        if self.at("op", "("):
            self.next()
            inner = self._expr()
            self.expect("op", ")")
            return inner
        raise ParseError(f"unexpected {tok.text!r} in expression", tok.line, tok.col)

    def _array_ref(self, name_tok: Token) -> ArrayRef:
        self.expect("op", "(")
        indices = [self._expr()]
        while self.at("op", ","):
            self.next()
            indices.append(self._expr())
        self.expect("op", ")")
        return ArrayRef(name_tok.text, indices)


def parse_program(source: str) -> Program:
    """Parse mini-Fortran *source* into a validated :class:`Program`."""
    return _Parser(source).parse()
