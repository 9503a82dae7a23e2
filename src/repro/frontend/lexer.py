"""Tokeniser for the mini-Fortran frontend."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ParseError
from repro.ir.program import KEYWORDS

_DOT_OPS = {
    ".eq.": "==",
    ".ne.": "!=",
    ".lt.": "<",
    ".le.": "<=",
    ".gt.": ">",
    ".ge.": ">=",
    ".and.": "&&",
    ".or.": "||",
    ".not.": "!!",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<newline>\n)
  | (?P<dotop>\.(?:eq|ne|lt|le|gt|ge|and|or|not)\.)
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>==|!=|<=|>=|&&|\|\||[-+*/(),=<>])
  | (?P<comment>![^\n]*)
    """,
    re.VERBOSE | re.IGNORECASE,
)


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str  # 'kw', 'name', 'int', 'float', 'op', 'newline', 'eof'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(source: str) -> Iterator[Token]:
    """Yield tokens, folding Fortran dot-operators onto C spellings and
    collapsing blank/comment-only lines."""
    line = 1
    col = 1
    pos = 0
    pending_newline = False
    emitted_any = False
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        pos = m.end()
        text = m.group(0)
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            col += len(text)
            continue
        if kind == "newline":
            if emitted_any:
                pending_newline = True
            line += 1
            col = 1
            continue
        if pending_newline:
            yield Token("newline", "\n", line - 1, 0)
            pending_newline = False
        tok_line, tok_col = line, col
        col += len(text)
        if kind == "dotop":
            yield Token("op", _DOT_OPS[text.lower()], tok_line, tok_col)
        elif kind == "name":
            lowered = text.lower()
            if lowered in KEYWORDS:
                yield Token("kw", lowered, tok_line, tok_col)
            else:
                yield Token("name", text, tok_line, tok_col)
        elif kind in ("int", "float", "op"):
            yield Token(kind, text, tok_line, tok_col)
        emitted_any = True
    if emitted_any:
        yield Token("newline", "\n", line, col)
    yield Token("eof", "", line, col)
