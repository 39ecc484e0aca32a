"""The declarative session language: rings, modules, ideals, sequences and
tasks, parsed from a line-oriented, whitespace-insensitive text with '#'
comments.  See docs/grammar.md for the token set and statement forms."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DimensionError,
    NameResolutionError,
    ParseError,
    StructuralError,
)
from .modules import FpModule
from .rings import GF, QQ, Poly, PolyRing


# ---------------------------------------------------------------------------
# tokens

_PUNCT = "[](),;=^*+-/"


@dataclass
class Token:
    kind: str  # 'name' | 'int' | 'punct' | 'eof'
    text: str
    line: int
    col: int

    @property
    def end_col(self):
        return self.col + len(self.text)


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# task declarations


@dataclass
class ProzeroTask:
    sequence: str
    degree: int
    from_n: int
    cap: int
    module: str = "R"
    allow_exhausted: bool = False

    kind = "prozero"

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


@dataclass
class RoundtripTask:
    ideal: str
    module: str
    samples: int
    seed: int
    probes: int = 5

    kind = "deligne-roundtrip"

    def pretty(self) -> str:
        s = (
            f"task deligne-roundtrip {self.ideal} {self.module} "
            f"samples {self.samples} seed {self.seed}"
        )
        if self.probes != 5:
            s += f" probes {self.probes}"
        return s + ";"

    def bounds(self) -> dict:
        return {"samples": self.samples, "probes": self.probes,
                "seed": self.seed}


@dataclass
class SheafGlueTask:
    ideal: str
    module: str
    samples: int
    seed: int

    kind = "sheaf-glue"

    def pretty(self) -> str:
        return (
            f"task sheaf-glue {self.ideal} {self.module} "
            f"samples {self.samples} seed {self.seed};"
        )

    def bounds(self) -> dict:
        return {"samples": self.samples, "seed": self.seed}


@dataclass
class DiagramTask:
    ideal: str
    module: str
    samples: int
    seed: int

    kind = "diagram"

    def pretty(self) -> str:
        return (
            f"task diagram {self.ideal} {self.module} "
            f"samples {self.samples} seed {self.seed};"
        )

    def bounds(self) -> dict:
        return {"samples": self.samples, "seed": self.seed}


@dataclass
class IdealizationTask:
    poles: tuple
    cap: int

    kind = "idealization"

    def pretty(self) -> str:
        poles = ", ".join(str(p) for p in self.poles)
        return f"task idealization poles ({poles}) cap {self.cap};"

    def bounds(self) -> dict:
        return {"cap": self.cap, "poles": list(self.poles)}


@dataclass
class Session:
    ring: PolyRing
    modules: dict = field(default_factory=dict)
    ideals: dict = field(default_factory=dict)
    sequences: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)
    module_matrices: dict = field(default_factory=dict)

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
        for name, polys in self.ideals.items():
            lines.append(
                f"ideal {name} = ({', '.join(str(p) for p in polys)});"
            )
        for name, polys in self.sequences.items():
            lines.append(
                f"sequence {name} = ({', '.join(str(p) for p in polys)});"
            )
        for t in self.tasks:
            lines.append(t.pretty())
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, Session)
            and other.ring == self.ring
            and other.module_matrices == self.module_matrices
            and other.ideals == self.ideals
            and other.sequences == self.sequences
            and other.tasks == self.tasks
        )


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
        return int(t.text)

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
        node = self.poly_term(ring)
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text in "+-":
                self.next()
                rhs = self.poly_term(ring)
                node = node + rhs if t.text == "+" else node - rhs
            else:
                return node

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
            num = int(t.text)
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

    def poly_list(self, ring: PolyRing):
        self.expect_punct("(")
        out = [self.poly_expr(ring)]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.next()
            out.append(self.poly_expr(ring))
        self.expect_punct(")")
        return out

    def matrix(self, ring: PolyRing):
        self.expect_punct("[")
        rows = []
        while True:
            self.expect_punct("[")
            row = [self.poly_expr(ring)]
            while self.peek().kind == "punct" and self.peek().text == ",":
                self.next()
                row.append(self.poly_expr(ring))
            self.expect_punct("]")
            rows.append(row)
            t = self.peek()
            if t.kind == "punct" and t.text == ",":
                self.next()
                continue
            break
        self.expect_punct("]")
        return rows

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
                session = Session(ring=ring)
                session.modules["R"] = FpModule.free(ring, 1)
                continue
            if session is None:
                self.fail("the session must start with a ring declaration", head)
            if head.text == "module":
                self.next()
                self.module_decl(session)
            elif head.text == "ideal":
                self.next()
                name = self.expect_name().text
                self.expect_punct("=")
                polys = self.poly_list(ring)
                self.expect_punct(";")
                self._declare(session.ideals, name, polys, head)
            elif head.text == "sequence":
                self.next()
                name = self.expect_name().text
                self.expect_punct("=")
                polys = self.poly_list(ring)
                self.expect_punct(";")
                self._declare(session.sequences, name, polys, head)
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
            fld = GF(int(t.text[1:]))
        else:
            self.fail(f"unknown field {t.text!r}", t)
        self.expect_punct("[")
        names = [self.expect_name().text]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.next()
            names.append(self.expect_name().text)
        self.expect_punct("]")
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
        columns = [tuple(rows[i][j] for i in range(rank)) for j in range(width)]
        if name in session.modules:
            self.fail(f"duplicate name {name!r}", name_tok)
        session.modules[name] = FpModule(session.ring, rank, columns)
        session.module_matrices[name] = tuple(tuple(r) for r in rows)

    def _resolve(self, session: Session, table: str, name: str, tok: Token):
        values = getattr(session, table)
        if name not in values:
            raise NameResolutionError(
                f"{tok.line}:{tok.col}: unknown {table[:-1]} {name!r}"
            )
        return values[name]

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
            return ProzeroTask(
                sequence=seq.text,
                degree=degree,
                from_n=from_n,
                cap=cap,
                module=module,
                allow_exhausted=allow,
            )
        if kind in ("deligne-roundtrip", "sheaf-glue", "diagram"):
            ideal = self.expect_name()
            self._resolve(session, "ideals", ideal.text, ideal)
            module = self.expect_name()
            self._resolve(session, "modules", module.text, module)
            self.expect_keyword("samples")
            samples = self.expect_int()
            self.expect_keyword("seed")
            seed = self.expect_int()
            probes = 5
            if kind == "deligne-roundtrip" and self.peek().kind == "name":
                self.expect_keyword("probes")
                probes = self.expect_int()
            self.expect_punct(";")
            if kind == "deligne-roundtrip":
                return RoundtripTask(
                    ideal=ideal.text,
                    module=module.text,
                    samples=samples,
                    seed=seed,
                    probes=probes,
                )
            if kind == "sheaf-glue":
                return SheafGlueTask(
                    ideal=ideal.text, module=module.text,
                    samples=samples, seed=seed,
                )
            return DiagramTask(
                ideal=ideal.text, module=module.text,
                samples=samples, seed=seed,
            )
        if kind == "idealization":
            self.expect_keyword("poles")
            self.expect_punct("(")
            poles = [self.expect_int()]
            while self.peek().kind == "punct" and self.peek().text == ",":
                self.next()
                poles.append(self.expect_int())
            self.expect_punct(")")
            self.expect_keyword("cap")
            cap = self.expect_int()
            self.expect_punct(";")
            return IdealizationTask(poles=tuple(poles), cap=cap)
        self.fail(f"unknown task kind {kind!r}", kind_tok)


def parse_session(text: str) -> Session:
    """Parse a session document; raises ParseError / NameResolutionError /
    DimensionError with source positions."""
    return _Parser(text).parse_session()


def parse_poly(ring: PolyRing, text: str) -> Poly:
    """Parse one polynomial expression (used for certificate replay)."""
    p = _Parser(text)
    poly = p.poly_expr(ring)
    if p.peek().kind != "eof":
        p.fail("trailing input after polynomial")
    return poly
