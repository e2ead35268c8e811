"""Tokenizer for the mini-Fortran language.

The workload corpus is written in a Fortran-77-flavoured language: labeled
``DO`` loops terminated by ``CONTINUE``, ``COMMON`` blocks, logical ``IF``
and block ``IF/THEN/ELSE``, dotted relational operators (``.LT.`` etc.), and
``CALL`` statements.  The lexer is line oriented: Fortran statements end at
end of line, and a leading integer on a line is a statement *label*.

Comments: a line whose first non-blank character is ``C``/``c``/``*`` in
column 1, or anything after ``!``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from .errors import LexError, SourceLocation

# Token kinds
KW = "KW"            # keyword
IDENT = "IDENT"
INT = "INT"
FLOAT = "FLOAT"
STRING = "STRING"
OP = "OP"            # operator / punctuation
LABEL = "LABEL"      # statement label (leading integer)
NEWLINE = "NEWLINE"
EOF = "EOF"

KEYWORDS = {
    "program", "subroutine", "function", "end", "enddo", "endif",
    "do", "if", "then", "else", "elseif", "continue", "call", "return",
    "goto", "common", "dimension", "integer", "real", "parameter",
    "print", "read", "exit", "cycle", "data", "stop",
}

# Multi-character operators, longest first.
_OPERATORS = [
    "**", "<=", ">=", "==", "/=", "!=", "(", ")", ",", "+", "-", "*", "/",
    "<", ">", "=", ":",
]

_DOTTED = {
    ".lt.": "<", ".le.": "<=", ".gt.": ">", ".ge.": ">=",
    ".eq.": "==", ".ne.": "/=", ".and.": ".and.", ".or.": ".or.",
    ".not.": ".not.", ".true.": ".true.", ".false.": ".false.",
}


class Token:
    __slots__ = ("kind", "value", "loc")

    def __init__(self, kind: str, value, loc: SourceLocation):
        self.kind = kind
        self.value = value
        self.loc = loc

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


def tokenize(source: str, unit: str = "<input>",
             first_line: int = 1) -> List[Token]:
    """Tokenize a whole source file into a flat token list; the first
    line of ``source`` is numbered ``first_line``."""
    tokens: List[Token] = []
    lines = source.splitlines()
    for lineno, raw in enumerate(lines, start=first_line):
        line = raw.rstrip()
        if not line.strip():
            continue
        # Classic column-1 comment: marker in column 1 followed by a blank
        # (or nothing).  "CALL foo" is not a comment; "C some text" is.
        if raw[:1] in ("C", "c", "*") and (len(line) == 1
                                           or line[1] in (" ", "\t")):
            continue
        bang = _find_comment(line)
        if bang is not None:
            line = line[:bang].rstrip()
            if not line.strip():
                continue
        tokens.extend(_tokenize_line(line, lineno, unit))
        tokens.append(Token(NEWLINE, "\n", SourceLocation(lineno, len(line), unit)))
    tokens.append(Token(EOF, None,
                        SourceLocation(first_line + len(lines), 0, unit)))
    return tokens


def _find_comment(line: str) -> Optional[int]:
    in_string = False
    for i, ch in enumerate(line):
        if ch == "'":
            in_string = not in_string
        elif ch == "!" and not in_string:
            return i
    return None


def _tokenize_line(line: str, lineno: int, unit: str) -> Iterator[Token]:
    out: List[Token] = []
    i = 0
    n = len(line)

    # Leading label: an integer before the first keyword/identifier.
    j = 0
    while j < n and line[j] in " \t":
        j += 1
    k = j
    while k < n and line[k].isdigit():
        k += 1
    if k > j and k < n and line[k] in " \t":
        out.append(Token(LABEL, int(line[j:k]), SourceLocation(lineno, j, unit)))
        i = k

    while i < n:
        ch = line[i]
        loc = SourceLocation(lineno, i, unit)
        if ch in " \t":
            i += 1
            continue
        if ch == "'":
            end = line.find("'", i + 1)
            if end < 0:
                raise LexError("unterminated string literal", loc)
            out.append(Token(STRING, line[i + 1:end], loc))
            i = end + 1
            continue
        if ch == ".":
            matched = False
            low = line[i:i + 7].lower()
            for dotted, norm in _DOTTED.items():
                if low.startswith(dotted):
                    if norm in (".true.", ".false."):
                        out.append(Token(KW, norm.strip("."), loc))
                    elif norm in (".and.", ".or.", ".not."):
                        out.append(Token(OP, norm.strip("."), loc))
                    else:
                        out.append(Token(OP, norm, loc))
                    i += len(dotted)
                    matched = True
                    break
            if matched:
                continue
            # fall through: may be a real literal like .5
        if ch.isdigit() or (ch == "." and i + 1 < n and line[i + 1].isdigit()):
            tok, i = _lex_number(line, i, loc)
            out.append(tok)
            continue
        if ch.isalpha() or ch == "_":
            k = i
            while k < n and (line[k].isalnum() or line[k] == "_"):
                k += 1
            word = line[i:k].lower()
            # normalize split keywords: "go to", "end do", "end if", "else if"
            if word == "go" and line[k:].lstrip().lower().startswith("to"):
                rest = line[k:].lstrip()
                consumed = len(line[k:]) - len(rest) + 2
                out.append(Token(KW, "goto", loc))
                i = k + consumed
                continue
            if word == "end":
                rest = line[k:].lstrip().lower()
                if rest.startswith("do"):
                    out.append(Token(KW, "enddo", loc))
                    i = k + (len(line[k:]) - len(line[k:].lstrip())) + 2
                    continue
                if rest.startswith("if"):
                    out.append(Token(KW, "endif", loc))
                    i = k + (len(line[k:]) - len(line[k:].lstrip())) + 2
                    continue
            if word == "else":
                rest = line[k:].lstrip().lower()
                if rest.startswith("if"):
                    out.append(Token(KW, "elseif", loc))
                    i = k + (len(line[k:]) - len(line[k:].lstrip())) + 2
                    continue
            if word in KEYWORDS:
                out.append(Token(KW, word, loc))
            else:
                out.append(Token(IDENT, word, loc))
            i = k
            continue
        matched = False
        for op in _OPERATORS:
            if line.startswith(op, i):
                out.append(Token(OP, op, loc))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch == "/":
            out.append(Token(OP, "/", loc))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r}", loc)
    return out


def _lex_number(line: str, i: int, loc: SourceLocation):
    n = len(line)
    k = i
    while k < n and line[k].isdigit():
        k += 1
    is_float = False
    if k < n and line[k] == ".":
        # Don't swallow dotted operators like 1.LT.x
        rest = line[k:k + 7].lower()
        if not any(rest.startswith(d) for d in _DOTTED):
            is_float = True
            k += 1
            while k < n and line[k].isdigit():
                k += 1
    if k < n and line[k] in "eEdD":
        m = k + 1
        if m < n and line[m] in "+-":
            m += 1
        if m < n and line[m].isdigit():
            is_float = True
            k = m
            while k < n and line[k].isdigit():
                k += 1
    text = line[i:k].lower().replace("d", "e")
    if is_float:
        return Token(FLOAT, float(text), loc), k
    return Token(INT, int(text), loc), k
