"""Freely reduced words over the two-generator alphabet {x, y}.

Letters are encoded as small ints: 0 = x, 1 = x^-1, 2 = y, 3 = y^-1,
so that ``letter ^ 1`` is the inverse letter.  Words are immutable and
always kept freely reduced; two words are equal iff their letter tuples
are equal.

Also hosts the presentation / subgroup-generator parser.  Grammar:

    presentation := '<' gen (',' gen)* '|' [relator (',' relator)*] '>'
    relator      := term ('*' term)*
    term         := atom ['^' integer | '^' atom]
    atom         := gen | '(' relator ')' | '[' relator ',' relator ']'
    gen          := 'x' | 'y'

``a^b`` with an atom exponent is conjugation b^-1*a*b, ``[a,b]`` is the
commutator a^-1*b^-1*a*b.  Whitespace is insignificant.  The parser
refuses, before building it, any word of more than MAX_WORD_LETTERS
letters before free reduction, and, before descending into it, a
bracket nested more than MAX_NESTING deep.
"""

from __future__ import annotations

from dataclasses import dataclass

X, XI, Y, YI = 0, 1, 2, 3

GEN_LETTERS = {"x": X, "y": Y}

#: the longest word, before free reduction, that the parser builds
MAX_WORD_LETTERS = 10 ** 6

#: the deepest nesting of ( ) and [ ] the parser descends into; each
#: level is three Python frames
MAX_NESTING = 100


def _reduce(letters) -> tuple:
    out = []
    for l in letters:
        if out and out[-1] == (l ^ 1):
            out.pop()
        else:
            out.append(l)
    return tuple(out)


class Word:
    """A freely reduced word in the free group on x, y."""

    __slots__ = ("letters",)

    def __init__(self, letters=(), reduced=False):
        if not reduced:
            letters = _reduce(letters)
        object.__setattr__(self, "letters", tuple(letters))

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def inverse(self) -> "Word":
        return Word(tuple(l ^ 1 for l in reversed(self.letters)), reduced=True)

    def conjugate(self, by: "Word") -> "Word":
        """self^by = by^-1 * self * by."""
        return by.inverse() * self * by

    def is_identity(self) -> bool:
        return not self.letters

    def cyclically_reduced(self) -> "Word":
        ls = list(self.letters)
        while len(ls) >= 2 and ls[0] == (ls[-1] ^ 1):
            ls = ls[1:-1]
        return Word(tuple(ls), reduced=True)

    def __str__(self):
        if not self.letters:
            return "e"
        parts = []
        i = 0
        n = len(self.letters)
        while i < n:
            l = self.letters[i]
            j = i
            while j < n and self.letters[j] == l:
                j += 1
            count = j - i
            gen = "x" if l in (X, XI) else "y"
            exp = count if l in (X, Y) else -count
            parts.append(gen if exp == 1 else "%s^%d" % (gen, exp))
            i = j
        return "*".join(parts)

    def __repr__(self):
        return "Word(%s)" % str(self)


def commutator_word(a: Word, b: Word) -> Word:
    """[a, b] = a^-1 * b^-1 * a * b, freely reduced."""
    return a.inverse() * b.inverse() * a * b


@dataclass(frozen=True)
class Presentation:
    """A two-generator finite presentation < x, y | relators >."""

    relators: tuple

    def __post_init__(self):
        for r in self.relators:
            if not isinstance(r, Word) or r.is_identity():
                raise ValueError("relators must be nonempty reduced words")

    def __str__(self):
        return "< x, y | %s >" % ", ".join(str(r) for r in self.relators)


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup of a finitely presented group, given by generator words."""

    parent: Presentation
    generators: tuple = ()

    def __str__(self):
        return "sub< %s >" % ", ".join(str(g) for g in self.generators)


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError("expected %r" % ch, self.pos)
        self.pos += 1

    def accept(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse_int(self):
        self.skip_ws()
        start = self.pos
        if self.accept("-"):
            pass
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ParseError("expected integer", start)
        # a longer exponent only gives too long a word, and int() refuses
        # one of a few thousand digits with an error of its own
        if len(self.text[start:self.pos].lstrip("-0")) > \
                len(str(MAX_WORD_LETTERS)):
            raise ParseError("exponent too large", start)
        return int(self.text[start:self.pos])

    def check_length(self, letters, pos):
        """Refuse a word of more than MAX_WORD_LETTERS letters."""
        if letters > MAX_WORD_LETTERS:
            raise ParseError("word longer than %d letters" % MAX_WORD_LETTERS,
                             pos)

    def parse_gen(self):
        c = self.peek()
        if c.isalpha():
            if c in GEN_LETTERS:
                self.pos += 1
                return Word((GEN_LETTERS[c],), reduced=True)
            raise ParseError("unknown generator %r (only x, y)" % c, self.pos)
        raise ParseError("expected generator", self.pos)

    def parse_atom(self):
        c = self.peek()
        if c not in ("(", "["):
            return self.parse_gen()
        start = self.pos
        if self.depth == MAX_NESTING:
            raise ParseError("brackets nested deeper than %d" % MAX_NESTING,
                             start)
        self.depth += 1
        self.pos += 1
        w = self.parse_word()
        if c == "(":
            self.expect(")")
        else:
            self.expect(",")
            b = self.parse_word()
            self.expect("]")
            self.check_length(2 * (len(w) + len(b)), start)
            w = commutator_word(w, b)
        self.depth -= 1
        return w

    def parse_term(self):
        w = self.parse_atom()
        if self.accept("^"):
            start = self.pos
            c = self.peek()
            if c in ("(", "[") or c.isalpha():
                by = self.parse_atom()
                self.check_length(len(w) + 2 * len(by), start)
                return w.conjugate(by)
            n = self.parse_int()
            self.check_length(len(w) * abs(n), start)
            return w ** n
        return w

    def parse_word(self):
        w = self.parse_term()
        while self.accept("*"):
            start = self.pos
            t = self.parse_term()
            self.check_length(len(w) + len(t), start)
            w = w * t
        return w


def parse_word(text: str) -> Word:
    """Parse a single word expression, e.g. "(x*y)^2*x^-1"."""
    p = _Parser(text)
    w = p.parse_word()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError("trailing input", p.pos)
    return w


def parse_presentation(text: str) -> Presentation:
    """Parse "< x, y | r1, r2, ... >" into a Presentation."""
    p = _Parser(text)
    p.expect("<")
    gens = [p.parse_gen()]
    while p.accept(","):
        gens.append(p.parse_gen())
    seen = {g.letters[0] for g in gens}
    if seen != {X, Y}:
        raise ParseError("presentation must declare generators x and y", p.pos)
    p.expect("|")
    relators = []
    if p.peek() != ">":
        relators.append(p.parse_word())
        while p.accept(","):
            relators.append(p.parse_word())
    p.expect(">")
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError("trailing input", p.pos)
    for r in relators:
        if r.is_identity():
            raise ParseError("relator reduces to the identity", 0)
    return Presentation(tuple(relators))
