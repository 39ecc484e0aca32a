"""The declarative session language: rings, modules, ideals, sequences and
tasks, parsed from a line-oriented, whitespace-insensitive text with '#'
comments.  See docs/grammar.md for the token set and statement forms."""

from __future__ import annotations

import re

from .errors import (
    DimensionError,
    NameResolutionError,
    ParseError,
    StructuralError,
)
from .rings import GF, MAX_DIGITS, QQ, Poly, PolyRing, vec_dot


# ---------------------------------------------------------------------------
# tokens

# The token classes of docs/grammar.md, matched from each position.  They
# are ASCII, as the grammar specifies: str.isalpha and str.isdigit accept
# other scripts and superscripts such as '²', which int() rejects; any
# other character is the 'error' class.
_TOKEN = re.compile(
    r"(?P<blank>[ \t\r]+)|(?P<newline>\n)|(?P<comment>#[^\n]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    r"|(?P<punct>[][(),;=^*+\-/])|(?P<error>.)"
)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # 'name' | 'int' | 'punct' | 'eof'
        self.text = text
        self.line = line
        self.col = col

    @property
    def end_col(self):
        return self.col + len(self.text)


def tokenize(text: str):
    tokens = []
    line, start = 1, 0  # start: index of the current line's first character
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "error":
            raise ParseError(f"unexpected character {m.group()!r}", line,
                             m.start() - start + 1)
        elif kind != "blank" and kind != "comment":
            tokens.append(Token(kind, m.group(), line, m.start() - start + 1))
    # end of input is at the last line's comment, if it has one
    stop = text.find("#", start)
    tokens.append(Token("eof", "", line,
                        (len(text) if stop < 0 else stop) - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# task declarations


class _Record:
    """Field-wise equality: records of the same class are equal when every
    slot, inherited ones included, holds equal values (a printed session
    parses back to an equal one)."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for cls in type(self).__mro__
                   for f in cls.__dict__.get("__slots__", ()))


class ProzeroTask(_Record):
    __slots__ = ("sequence", "degree", "from_n", "cap", "module",
                 "allow_exhausted")
    kind = "prozero"

    def __init__(self, sequence: str, degree: int, from_n: int, cap: int,
                 module: str = "R", allow_exhausted: bool = False):
        self.sequence = sequence
        self.degree = degree
        self.from_n = from_n
        self.cap = cap
        self.module = module
        self.allow_exhausted = allow_exhausted

    def pretty(self) -> str:
        parts = [
            f"task prozero {self.sequence} degree {self.degree}",
            f"from {self.from_n} cap {self.cap}",
        ]
        if self.module != "R":
            parts.append(f"module {self.module}")
        if self.allow_exhausted:
            parts.append("allow-exhausted")
        return " ".join(parts) + ";"

    def bounds(self) -> dict:
        return {"degree": self.degree, "from": self.from_n, "cap": self.cap}


class _SampledTask(_Record):
    """A task over an ideal and a module, checked on ``samples`` elements
    drawn from ``seed``."""

    __slots__ = ("ideal", "module", "samples", "seed")

    def __init__(self, ideal: str, module: str, samples: int, seed: int):
        self.ideal = ideal
        self.module = module
        self.samples = samples
        self.seed = seed

    def pretty(self) -> str:
        return (
            f"task {self.kind} {self.ideal} {self.module} "
            f"samples {self.samples} seed {self.seed};"
        )

    def bounds(self) -> dict:
        return {"samples": self.samples, "seed": self.seed}


class RoundtripTask(_SampledTask):
    __slots__ = ("probes",)
    kind = "deligne-roundtrip"

    def __init__(self, ideal: str, module: str, samples: int, seed: int,
                 probes: int = 5):
        super().__init__(ideal, module, samples, seed)
        self.probes = probes

    def pretty(self) -> str:
        s = super().pretty()
        return s if self.probes == 5 else f"{s[:-1]} probes {self.probes};"

    def bounds(self) -> dict:
        return {**super().bounds(), "probes": self.probes}


class SheafGlueTask(_SampledTask):
    __slots__ = ()
    kind = "sheaf-glue"


class DiagramTask(_SampledTask):
    __slots__ = ()
    kind = "diagram"


_SAMPLED = {cls.kind: cls for cls in (RoundtripTask, SheafGlueTask, DiagramTask)}


class IdealizationTask(_Record):
    __slots__ = ("poles", "cap")
    kind = "idealization"

    def __init__(self, poles: tuple, cap: int):
        self.poles = poles
        self.cap = cap

    def pretty(self) -> str:
        poles = ", ".join(str(p) for p in self.poles)
        return f"task idealization poles ({poles}) cap {self.cap};"

    def bounds(self) -> dict:
        return {"cap": self.cap, "poles": list(self.poles)}


class Presentation(_Record):
    """A declared module: R^rank modulo the span of its relation columns,
    the columns of its matrix.  Ring, rank and columns are all that
    ``check`` reads of a module, and an FpModule has them too."""

    __slots__ = ("ring", "rank", "columns")

    def __init__(self, ring: PolyRing, rank: int, columns: tuple):
        self.ring = ring
        self.rank = rank
        self.columns = columns


class ModuleTable:
    """The declared modules by name: ``presentations`` holds each one as
    parsed, and reading ``table[name]`` builds its FpModule once, so that
    parsing and replay import no Gröbner code.  Two tables are equal when
    their presentations are."""

    __slots__ = ("presentations", "_built")

    def __init__(self, presentations: dict):
        self.presentations = presentations
        self._built = {}

    def __contains__(self, name) -> bool:
        return name in self.presentations

    def __getitem__(self, name: str):
        if name not in self._built:
            from .modules import FpModule

            p = self.presentations[name]
            self._built[name] = FpModule(p.ring, p.rank, p.columns)
        return self._built[name]

    def __eq__(self, other):
        if type(other) is not ModuleTable:
            return NotImplemented
        return self.presentations == other.presentations


class Session(_Record):
    """A parsed session: its ring, the declared tables by name and the
    tasks in source order; the module ``R`` is predefined."""

    __slots__ = ("ring", "module_matrices", "ideals", "sequences", "tasks",
                 "modules")

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.module_matrices = {}
        self.ideals = {}
        self.sequences = {}
        self.tasks = []
        self.modules = ModuleTable({"R": Presentation(ring, 1, ())})

    def pretty(self) -> str:
        lines = []
        fld = "Q" if self.ring.field == QQ else self.ring.field.name
        lines.append(
            f"ring {fld}[{', '.join(self.ring.variables)}] order {self.ring.order};"
        )
        for name, rows in self.module_matrices.items():
            body = ", ".join(
                "[" + ", ".join(str(p) for p in row) + "]" for row in rows
            )
            lines.append(f"module {name} = coker [{body}];")
        for word, table in (("ideal", self.ideals),
                            ("sequence", self.sequences)):
            for name, polys in table.items():
                lines.append(
                    f"{word} {name} = ({', '.join(str(p) for p in polys)});")
        for t in self.tasks:
            lines.append(t.pretty())
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ---------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_punct(self, ch: str) -> Token:
        t = self.peek()
        if t.kind != "punct" or t.text != ch:
            self.fail(f"expected {ch!r}", t)
        return self.next()

    def expect_name(self) -> Token:
        t = self.peek()
        if t.kind != "name":
            self.fail("expected a name", t)
        return self.next()

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind != "int":
            self.fail("expected an integer", t)
        self.next()
        return self.int_value(t.text, t)

    def int_value(self, digits: str, tok: Token) -> int:
        if len(digits) > MAX_DIGITS:
            self.fail(f"integer literal longer than {MAX_DIGITS} digits", tok)
        return int(digits)

    def expect_keyword(self, word: str):
        t = self.peek()
        if t.kind != "name" or t.text != word:
            self.fail(f"expected keyword {word!r}", t)
        self.next()

    def hyphenated_name(self) -> str:
        """A name, possibly continued by adjacent '-name' chunks (task
        kinds and flags); adjacency keeps 'x - y' in polynomial position
        unaffected."""
        t = self.expect_name()
        parts = [t.text]
        end = (t.line, t.end_col)
        while True:
            dash = self.peek()
            if dash.kind != "punct" or dash.text != "-":
                break
            if (dash.line, dash.col) != end:
                break
            nxt = self.tokens[self.pos + 1]
            if nxt.kind != "name" or (nxt.line, nxt.col) != (dash.line, dash.end_col):
                break
            self.next()
            t2 = self.next()
            parts.append(t2.text)
            end = (t2.line, t2.end_col)
        return "-".join(parts)

    # -- polynomial expressions --------------------------------------------
    def poly_expr(self, ring: PolyRing) -> Poly:
        """The signed terms, summed once by vec_dot, so that a sum parses
        in time linear in its terms (a Poly addition per term would copy
        the running sum each time)."""
        one = ring.one()
        signs, terms = [one], [(self.poly_term(ring),)]
        t = self.peek()
        while t.kind == "punct" and t.text in "+-":
            self.next()
            signs.append(one if t.text == "+" else -one)
            terms.append((self.poly_term(ring),))
            t = self.peek()
        if len(terms) == 1:
            return terms[0][0]
        return vec_dot(signs, terms, ring, 1)[0]

    def poly_term(self, ring: PolyRing) -> Poly:
        node = self.poly_factor(ring)
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text == "*":
                self.next()
                node = node * self.poly_factor(ring)
            else:
                return node

    def poly_factor(self, ring: PolyRing) -> Poly:
        t = self.peek()
        if t.kind == "punct" and t.text == "-":
            self.next()
            return -self.poly_factor(ring)
        base = self.poly_atom(ring)
        t = self.peek()
        if t.kind == "punct" and t.text == "^":
            self.next()
            return base ** self.expect_int()
        return base

    def poly_atom(self, ring: PolyRing) -> Poly:
        t = self.peek()
        if t.kind == "punct" and t.text == "(":
            self.next()
            inner = self.poly_expr(ring)
            self.expect_punct(")")
            return inner
        if t.kind == "int":
            self.next()
            num = self.int_value(t.text, t)
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.text == "/":
                self.next()
                den = self.expect_int()
                if den == 0:
                    self.fail("zero denominator", nxt)
                from fractions import Fraction

                try:
                    return ring.const(Fraction(num, den))
                except StructuralError as ex:  # 0 mod p
                    self.fail(str(ex), t)
            return ring.const(num)
        if t.kind == "name":
            self.next()
            if t.text not in ring.variables:
                raise NameResolutionError(
                    f"{t.line}:{t.col}: unknown variable {t.text!r}"
                )
            return ring.gen(ring.variables.index(t.text))
        self.fail("expected a polynomial", t)

    def delimited(self, opening: str, item, closing: str) -> list:
        """`opening item (, item)* closing`, each item read by item()."""
        self.expect_punct(opening)
        out = [item()]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.next()
            out.append(item())
        self.expect_punct(closing)
        return out

    def poly_list(self, ring: PolyRing):
        return self.delimited("(", lambda: self.poly_expr(ring), ")")

    def matrix(self, ring: PolyRing):
        return self.delimited(
            "[", lambda: self.delimited("[", lambda: self.poly_expr(ring), "]"),
            "]")

    # -- statements ---------------------------------------------------------
    def parse_session(self) -> Session:
        ring = None
        session = None
        while self.peek().kind != "eof":
            head = self.peek()
            if head.kind != "name":
                self.fail("expected a statement", head)
            if head.text == "ring":
                if session is not None:
                    self.fail("duplicate ring declaration", head)
                self.next()
                ring = self.ring_decl()
                session = Session(ring)
                continue
            if session is None:
                self.fail("the session must start with a ring declaration", head)
            if head.text == "module":
                self.next()
                self.module_decl(session)
            elif head.text in ("ideal", "sequence"):
                self.next()
                name = self.expect_name().text
                self.expect_punct("=")
                polys = self.poly_list(ring)
                self.expect_punct(";")
                self._declare(getattr(session, head.text + "s"), name, polys,
                              head)
            elif head.text == "task":
                self.next()
                session.tasks.append(self.task_decl(session))
            else:
                self.fail(f"unknown statement {head.text!r}", head)
        if session is None:
            raise ParseError("empty session", 1, 1)
        return session

    def _declare(self, table: dict, name: str, value, tok: Token):
        if name in table or name == "R":
            self.fail(f"duplicate name {name!r}", tok)
        table[name] = value

    def ring_decl(self) -> PolyRing:
        t = self.expect_name()
        if t.text == "Q":
            fld = QQ
        elif t.text.startswith("F") and t.text[1:].isdigit():
            fld = GF(self.int_value(t.text[1:], t))
        else:
            self.fail(f"unknown field {t.text!r}", t)
        names = self.delimited("[", lambda: self.expect_name().text, "]")
        order = "grevlex"
        if self.peek().kind == "name" and self.peek().text == "order":
            self.next()
            o = self.expect_name()
            if o.text not in ("grevlex", "lex"):
                self.fail(f"unknown order {o.text!r}", o)
            order = o.text
        self.expect_punct(";")
        return PolyRing(fld, names, order)

    def module_decl(self, session: Session):
        name_tok = self.expect_name()
        name = name_tok.text
        self.expect_punct("=")
        self.expect_keyword("coker")
        rows = self.matrix(session.ring)
        self.expect_punct(";")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise DimensionError(
                    f"{name_tok.line}:{name_tok.col}: ragged matrix for {name!r}"
                )
        rank = len(rows)
        columns = tuple(tuple(rows[i][j] for i in range(rank))
                        for j in range(width))
        if name in session.modules:
            self.fail(f"duplicate name {name!r}", name_tok)
        session.modules.presentations[name] = Presentation(session.ring, rank,
                                                           columns)
        session.module_matrices[name] = tuple(tuple(r) for r in rows)

    def _resolve(self, session: Session, table: str, name: str, tok: Token):
        if name not in getattr(session, table):
            raise NameResolutionError(
                f"{tok.line}:{tok.col}: unknown {table[:-1]} {name!r}"
            )

    def task_decl(self, session: Session):
        kind_tok = self.peek()
        kind = self.hyphenated_name()
        if kind == "prozero":
            seq = self.expect_name()
            self._resolve(session, "sequences", seq.text, seq)
            self.expect_keyword("degree")
            degree = self.expect_int()
            self.expect_keyword("from")
            from_n = self.expect_int()
            self.expect_keyword("cap")
            cap = self.expect_int()
            module = "R"
            allow = False
            while self.peek().kind == "name":
                flag_tok = self.peek()
                flag = self.hyphenated_name()
                if flag == "module":
                    mtok = self.expect_name()
                    self._resolve(session, "modules", mtok.text, mtok)
                    module = mtok.text
                elif flag == "allow-exhausted":
                    allow = True
                else:
                    self.fail(f"unknown prozero option {flag!r}", flag_tok)
            self.expect_punct(";")
            return ProzeroTask(seq.text, degree, from_n, cap, module, allow)
        sampled = _SAMPLED.get(kind)
        if sampled is not None:
            ideal = self.expect_name()
            self._resolve(session, "ideals", ideal.text, ideal)
            module = self.expect_name()
            self._resolve(session, "modules", module.text, module)
            self.expect_keyword("samples")
            samples = self.expect_int()
            self.expect_keyword("seed")
            task = sampled(ideal.text, module.text, samples, self.expect_int())
            if sampled is RoundtripTask and self.peek().kind == "name":
                self.expect_keyword("probes")
                task.probes = self.expect_int()
            self.expect_punct(";")
            return task
        if kind == "idealization":
            self.expect_keyword("poles")
            poles = self.delimited("(", self.expect_int, ")")
            self.expect_keyword("cap")
            cap = self.expect_int()
            self.expect_punct(";")
            return IdealizationTask(poles=tuple(poles), cap=cap)
        self.fail(f"unknown task kind {kind!r}", kind_tok)


def parse_session(text: str) -> Session:
    """Parse a session document; raises ParseError / NameResolutionError /
    DimensionError with source positions, and ParseError at the token where
    an expression nests deeper than Python's recursion limit."""
    p = _Parser(text)
    try:
        return p.parse_session()
    except RecursionError:
        p.fail("expression nested too deeply")


def parse_poly(ring: PolyRing, text: str) -> Poly:
    """Parse one polynomial expression in the session grammar."""
    p = _Parser(text)
    try:
        poly = p.poly_expr(ring)
    except RecursionError:
        p.fail("expression nested too deeply")
    if p.peek().kind != "eof":
        p.fail("trailing input after polynomial")
    return poly
