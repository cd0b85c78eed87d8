"""Recursive-descent parser for AQL surface syntax.

Grammar (Sections 1, 3, 4 of the paper; see also the sample session):

.. code-block:: none

    program   ::= statement*
    statement ::= 'val' \\x '=' expr ';'
                | 'macro' \\x '=' expr ';'
                | 'readval' \\x 'using' IDENT 'at' expr ';'
                | 'writeval' expr 'using' IDENT 'at' expr ';'
                | expr ';'
    expr      ::= 'fn' P' '=>' expr
                | 'if' expr 'then' expr 'else' expr
                | 'let' ('val' P' '=' expr)+ 'in' expr 'end'
                | or-expr
    or-expr   ::= and-expr ('or' and-expr)*
    and-expr  ::= not-expr ('and' not-expr)*
    not-expr  ::= 'not' not-expr | cmp-expr
    cmp-expr  ::= u-expr (('='|'<>'|'<'|'<='|'>'|'>='|'in') u-expr)?
    u-expr    ::= add-expr (('union'|'bunion') add-expr)*
    add-expr  ::= mul-expr (('+'|'-') mul-expr)*
    mul-expr  ::= postfix (('*'|'/'|'%') postfix)*
    postfix   ::= atom ('!' operand | '(' args ')' | '[' args ']')*
    atom      ::= literal | IDENT | '(' expr (',' expr)* ')'
                | set-or-comprehension | bag-or-comprehension
                | array-literal-or-tabulation

Comprehension qualifiers (generators/filters) are disambiguated from
filter expressions by backtracking: we try a pattern, and commit to a
generator only when ``<-``, ``:==`` or ``==`` follows.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.surface import sast as S
from repro.surface.lexer import Token, tokenize

_CMP_TOKENS = ("=", "<>", "<", "<=", ">", ">=")


class Parser:
    """Parses a token stream into surface AST.

    With ``terminator_optional`` the final statement's ``;`` may be
    left off: a statement terminator expected at end of input is taken
    as read.  Anything else parses (and fails) exactly as without it,
    so an error still points into the source as written.
    """

    def __init__(self, tokens: List[Token],
                 terminator_optional: bool = False):
        self.tokens = tokens
        self.pos = 0
        self.terminator_optional = terminator_optional

    # -- token plumbing -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Optional[Token]:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def _at(self, kind: str, text: Optional[str] = None,
            offset: int = 0) -> bool:
        token = self._peek(offset)
        if token is None:
            return False
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def _advance(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError(f"expected {text or kind}, found end of input")
        if token.kind != kind or (text is not None and token.text != text):
            raise ParseError(
                f"expected {text or kind}, found {token.text!r}",
                token.line, token.column,
            )
        return self._advance()

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        if token is None:
            return ParseError(message + " (at end of input)")
        return ParseError(
            f"{message}, found {token.text!r}", token.line, token.column
        )

    # -- statements -------------------------------------------------------------

    def parse_program(self) -> List[S.Statement]:
        """Parse a sequence of top-level statements until end of input."""
        statements: List[S.Statement] = []
        while self._peek() is not None:
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> S.Statement:
        """Parse one top-level statement (val/macro/readval/writeval/query)."""
        if self._at("kw", "val"):
            self._advance()
            name = self._expect("binder").text
            self._expect("=")
            expr = self.parse_expr()
            self._end_statement()
            return S.ValDecl(name, expr)
        if self._at("kw", "macro"):
            self._advance()
            name = self._expect("binder").text
            self._expect("=")
            expr = self.parse_expr()
            self._end_statement()
            return S.MacroDecl(name, expr)
        if self._at("kw", "readval"):
            self._advance()
            name = self._expect("binder").text
            self._expect("kw", "using")
            reader = self._expect("ident").text
            self._expect("kw", "at")
            args = self.parse_expr()
            self._end_statement()
            return S.ReadVal(name, reader, args)
        if self._at("kw", "writeval"):
            self._advance()
            expr = self.parse_expr()
            self._expect("kw", "using")
            writer = self._expect("ident").text
            self._expect("kw", "at")
            args = self.parse_expr()
            self._end_statement()
            return S.WriteVal(expr, writer, args)
        expr = self.parse_expr()
        self._end_statement()
        return S.Query(expr)

    def _end_statement(self) -> None:
        if self.terminator_optional and self._peek() is None:
            return
        self._expect(";")

    # -- expressions -------------------------------------------------------------

    def parse_expr(self, no_in: bool = False) -> S.SExpr:
        """Parse one expression (``no_in`` suppresses the membership
        operator at top level, for let-binding right-hand sides)."""
        if self._at("kw", "fn"):
            self._advance()
            pattern = self.parse_pattern()
            self._expect("=>")
            body = self.parse_expr(no_in)
            return S.SLam(pattern, body)
        if self._at("kw", "if"):
            self._advance()
            cond = self.parse_expr()
            self._expect("kw", "then")
            then = self.parse_expr()
            self._expect("kw", "else")
            orelse = self.parse_expr(no_in)
            return S.SIf(cond, then, orelse)
        if self._at("kw", "let"):
            return self._parse_let(no_in)
        return self._parse_or(no_in)

    def _parse_let(self, no_in: bool) -> S.SExpr:
        self._expect("kw", "let")
        bindings: List[Tuple[S.Pattern, S.SExpr]] = []
        while self._at("kw", "val"):
            self._advance()
            pattern = self.parse_pattern()
            self._expect("=")
            bindings.append((pattern, self.parse_expr(no_in=True)))
        if not bindings:
            raise self._error("let requires at least one val declaration")
        self._expect("kw", "in")
        body = self.parse_expr()
        self._expect("kw", "end")
        return S.SLet(tuple(bindings), body)

    def _parse_or(self, no_in: bool) -> S.SExpr:
        left = self._parse_and(no_in)
        while self._at("kw", "or"):
            self._advance()
            left = S.SBinop("or", left, self._parse_and(no_in))
        return left

    def _parse_and(self, no_in: bool) -> S.SExpr:
        left = self._parse_not(no_in)
        while self._at("kw", "and"):
            self._advance()
            left = S.SBinop("and", left, self._parse_not(no_in))
        return left

    def _parse_not(self, no_in: bool) -> S.SExpr:
        if self._at("kw", "not"):
            self._advance()
            return S.SNot(self._parse_not(no_in))
        return self._parse_cmp(no_in)

    def _parse_cmp(self, no_in: bool) -> S.SExpr:
        left = self._parse_union(no_in)
        for op in _CMP_TOKENS:
            if self._at(op):
                self._advance()
                return S.SBinop(op, left, self._parse_union(no_in))
        if not no_in and self._at("kw", "in"):
            self._advance()
            return S.SIn(left, self._parse_union(no_in))
        return left

    def _parse_union(self, no_in: bool) -> S.SExpr:
        left = self._parse_add(no_in)
        while self._at("kw", "union") or self._at("kw", "bunion"):
            op = self._advance().text
            left = S.SBinop(op, left, self._parse_add(no_in))
        return left

    def _parse_add(self, no_in: bool) -> S.SExpr:
        left = self._parse_mul(no_in)
        while self._at("+") or self._at("-"):
            op = self._advance().text
            left = S.SBinop(op, left, self._parse_mul(no_in))
        return left

    def _parse_mul(self, no_in: bool) -> S.SExpr:
        left = self._parse_postfix()
        while self._at("*") or self._at("/") or self._at("%"):
            op = self._advance().text
            left = S.SBinop(op, left, self._parse_postfix())
        return left

    def _parse_postfix(self) -> S.SExpr:
        expr = self._parse_atom()
        while True:
            if self._at("!"):
                self._advance()
                argument = self._parse_operand()
                expr = S.SApp(expr, argument)
            elif self._at("("):
                self._advance()
                args = self._parse_expr_list(")")
                expr = S.SCall(expr, tuple(args))
            elif self._at("[") and not self._at("[", offset=1):
                self._advance()
                indices = self._parse_expr_list("]")
                if not indices:
                    raise self._error("subscript needs at least one index")
                expr = S.SSubscript(expr, tuple(indices))
            else:
                return expr

    def _parse_operand(self) -> S.SExpr:
        """The argument of ``!``: an atom with subscripts/calls but no ``!``."""
        expr = self._parse_atom()
        while True:
            if self._at("("):
                self._advance()
                args = self._parse_expr_list(")")
                expr = S.SCall(expr, tuple(args))
            elif self._at("[") and not self._at("[", offset=1):
                self._advance()
                indices = self._parse_expr_list("]")
                if not indices:
                    raise self._error("subscript needs at least one index")
                expr = S.SSubscript(expr, tuple(indices))
            else:
                return expr

    def _parse_expr_list(self, closer: str) -> List[S.SExpr]:
        items: List[S.SExpr] = []
        if self._at(closer):
            self._advance()
            return items
        while True:
            items.append(self.parse_expr())
            if self._at(closer):
                self._advance()
                return items
            self._expect(",")

    # -- atoms ---------------------------------------------------------------------

    def _parse_atom(self) -> S.SExpr:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        if token.kind == "nat":
            self._advance()
            return S.SNat(int(token.text))
        if token.kind == "real":
            self._advance()
            return S.SReal(float(token.text))
        if token.kind == "string":
            self._advance()
            return S.SStr(token.text)
        if token.kind == "kw" and token.text in ("true", "false"):
            self._advance()
            return S.SBool(token.text == "true")
        if token.kind == "kw" and token.text == "bottom":
            self._advance()
            return S.SBottom()
        if token.kind == "ident":
            self._advance()
            return S.SVar(token.text)
        if token.kind == "(":
            self._advance()
            first = self.parse_expr()
            if self._at(","):
                items = [first]
                while self._at(","):
                    self._advance()
                    items.append(self.parse_expr())
                self._expect(")")
                return S.STuple(tuple(items))
            self._expect(")")
            return first
        if token.kind == "{":
            return self._parse_braced()
        if token.kind == "[":
            if self._at("[", offset=1):
                return self._parse_array()
            raise self._error("'[' can only start an array literal '[['")
        raise self._error("expected an expression")

    def _parse_braced(self) -> S.SExpr:
        self._expect("{")
        if self._at("|"):
            return self._parse_bag()
        if self._at("}"):
            self._advance()
            return S.SSetLit(())
        head = self.parse_expr()
        if self._at("|"):
            self._advance()
            qualifiers = self._parse_qualifiers()
            self._expect("}")
            return S.SSetComp(head, tuple(qualifiers))
        items = [head]
        while self._at(","):
            self._advance()
            items.append(self.parse_expr())
        self._expect("}")
        return S.SSetLit(tuple(items))

    def _parse_bag(self) -> S.SExpr:
        self._expect("|")
        if self._at("|") and self._at("}", offset=1):
            self._advance()
            self._advance()
            return S.SBagLit(())
        head = self.parse_expr()
        if self._at("|") and self._at("}", offset=1):
            self._advance()
            self._advance()
            return S.SBagLit((head,))
        if self._at("|"):
            self._advance()
            qualifiers = self._parse_qualifiers()
            self._expect("|")
            self._expect("}")
            return S.SBagComp(head, tuple(qualifiers))
        items = [head]
        while self._at(","):
            self._advance()
            items.append(self.parse_expr())
        self._expect("|")
        self._expect("}")
        return S.SBagLit(tuple(items))

    def _parse_array(self) -> S.SExpr:
        self._expect("[")
        self._expect("[")
        if self._at("]") and self._at("]", offset=1):
            self._advance()
            self._advance()
            return S.SArrayLit(())
        # tabulation starts with a binder followed by '<' only after the body,
        # so parse the first expression and look at what follows
        first = self.parse_expr()
        if self._at("|"):
            self._advance()
            binders = self._parse_tab_binders()
            self._expect("]")
            self._expect("]")
            return S.STabulate(tuple(binders), first)
        items = [first]
        dims: Optional[List[S.SExpr]] = None
        while True:
            if self._at(";"):
                if dims is not None:
                    raise self._error("multiple ';' in array literal")
                self._advance()
                dims = items
                items = []
                if self._at("]") and self._at("]", offset=1):
                    break
                items.append(self.parse_expr())
                continue
            if self._at("]") and self._at("]", offset=1):
                break
            self._expect(",")
            items.append(self.parse_expr())
        self._advance()
        self._advance()
        if dims is None:
            return S.SArrayLit(tuple(items))
        return S.SArrayRowMajor(tuple(dims), tuple(items))

    def _parse_tab_binders(self) -> List[Tuple[str, S.SExpr]]:
        binders: List[Tuple[str, S.SExpr]] = []
        while True:
            name = self._expect("binder").text
            self._expect("<")
            bound = self.parse_expr()
            binders.append((name, bound))
            if not self._at(","):
                return binders
            self._advance()

    # -- comprehension qualifiers ----------------------------------------------------

    def _parse_qualifiers(self) -> List[S.GenFilter]:
        qualifiers: List[S.GenFilter] = []
        while True:
            qualifiers.append(self._parse_qualifier())
            if not self._at(","):
                return qualifiers
            self._advance()

    def _parse_qualifier(self) -> S.GenFilter:
        # array generator: [ P : P ] <- e
        if self._at("[") and not self._at("[", offset=1):
            saved = self.pos
            try:
                self._advance()
                index_pattern = self.parse_pattern()
                self._expect(":")
                value_pattern = self.parse_pattern()
                self._expect("]")
                self._expect("<-")
                source = self.parse_expr()
                return S.GArrayGen(index_pattern, value_pattern, source)
            except ParseError:
                self.pos = saved
        # generator or binding: P <- e | P :== e | P == e
        saved = self.pos
        try:
            pattern = self.parse_pattern()
            if self._at("<-"):
                self._advance()
                return S.GGen(pattern, self.parse_expr())
            if self._at(":==") or self._at("=="):
                self._advance()
                return S.GBind(pattern, self.parse_expr())
        except ParseError:
            pass
        self.pos = saved
        return S.GFilter(self.parse_expr())

    # -- patterns --------------------------------------------------------------------

    def parse_pattern(self) -> S.Pattern:
        """Parse a pattern: binder, wildcard, constant, variable or tuple."""
        token = self._peek()
        if token is None:
            raise ParseError("expected a pattern, found end of input")
        if token.kind == "binder":
            self._advance()
            return S.PBind(token.text)
        if token.kind == "_" or token.kind == "\\":
            if token.kind == "\\":
                raise self._error("'\\' must be followed by a name")
            self._advance()
            return S.PWild()
        if token.kind == "ident":
            self._advance()
            return S.PVarEq(token.text)
        if token.kind == "nat":
            self._advance()
            return S.PConst(int(token.text))
        if token.kind == "real":
            self._advance()
            return S.PConst(float(token.text))
        if token.kind == "string":
            self._advance()
            return S.PConst(token.text)
        if token.kind == "kw" and token.text in ("true", "false"):
            self._advance()
            return S.PConst(token.text == "true")
        if token.kind == "(":
            self._advance()
            items = [self.parse_pattern()]
            while self._at(","):
                self._advance()
                items.append(self.parse_pattern())
            self._expect(")")
            if len(items) == 1:
                return items[0]
            return S.PTuple(tuple(items))
        raise self._error("expected a pattern")


def parse_expression(source: str) -> S.SExpr:
    """Parse a single AQL expression from text."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expr()
    leftover = parser._peek()
    if leftover is not None and leftover.kind != ";":
        raise ParseError(
            f"trailing input after expression: {leftover.text!r}",
            leftover.line, leftover.column,
        )
    return expr


def parse_program(source: str, terminator_optional: bool = False
                  ) -> List[S.Statement]:
    """Parse a sequence of AQL top-level statements (the last one's
    ``;`` may be omitted when ``terminator_optional``)."""
    return Parser(tokenize(source), terminator_optional).parse_program()


__all__ = ["Parser", "parse_expression", "parse_program"]
