"""Term trees for lemma statements and proof goals, plus a small precedence parser."""

from __future__ import annotations

from dataclasses import dataclass


class TermError(ValueError):
    """Statement text that cannot be turned into a term tree."""


class UnbalancedDelimiters(TermError):
    pass


class EmptyStatement(TermError):
    pass


@dataclass(frozen=True)
class TermTree:
    """Ordered tree keyed by head symbol; leaves have no children."""

    symbol: str
    children: tuple["TermTree", ...] = ()

    def __post_init__(self) -> None:
        if not self.symbol:
            raise ValueError("term symbol must be non-empty")

    def top_symbols(self) -> tuple[str, str | None, str | None]:
        """Head symbol plus the heads of the first two children."""
        first = self.children[0].symbol if self.children else None
        second = self.children[1].symbol if len(self.children) > 1 else None
        return self.symbol, first, second


BINDERS = ("forall", "exists", "fun")

# Binding levels, loosest to tightest; application binds tighter than all of them.
OPERATOR_LEVELS: tuple[dict[str, str], ...] = (
    {"->": "right"},
    {"||": "right", "\\/": "right"},
    {"&&": "right", "/\\": "right"},
    {"=": "left", "==": "left", "!=": "left", "<>": "left",
     "<": "left", "<=": "left", ">": "left", ">=": "left", "\\in": "left"},
    {"+": "left", "-": "left", "++": "right", "::": "right"},
    {"*": "left", "*m": "left", "/": "left"},
    {"^": "right"},
)
_OP_LEVEL = {op: lvl for lvl, ops in enumerate(OPERATOR_LEVELS) for op in ops}
_OP_ASSOC = {op: assoc for ops in OPERATOR_LEVELS for op, assoc in ops.items()}
_PREFIX = ("-", "~")

_TWO_CHAR_OPS = frozenset(("=>", "->", "||", "&&", "==", "!=", "<=", ">=", "<>", "++", "\\/", "/\\", "::"))
_CLOSERS = {"(": ")", "[": "]", "{": "}"}


def group_end(text: str, start: int, where: str = "") -> int:
    """End index (exclusive) of the balanced group opening at start.

    where is appended to the error message, for example " at FILE:LINE".
    """
    stack = []
    for i in range(start, len(text)):
        c = text[i]
        if c in _CLOSERS:
            stack.append(_CLOSERS[c])
        elif c in ")]}":
            if not stack or stack[-1] != c:
                raise UnbalancedDelimiters(f"mismatched {c!r}{where}")
            stack.pop()
            if not stack:
                return i + 1
    raise UnbalancedDelimiters(f"unclosed {text[start]!r}{where}")


def _word_end(text: str, start: int) -> int:
    n = len(text)
    j = start
    if text[j] == "\\":
        j += 1
    while j < n:
        c = text[j]
        if c.isalnum() or c in "_'%":
            j += 1
            continue
        if c == "`":
            j += 1
            while j < n and (text[j] == "!" or text[j].isalnum() or text[j] in "_'%"):
                j += 1
            continue
        if c == "." and j + 1 < n and (text[j + 1].isalnum() or text[j + 1] == "_"):
            j += 1
            continue
        if c == "." and j + 2 < n and text[j + 1] == "+" and text[j + 2].isdigit():
            j += 2
            continue
        break
    return j


def _lex(text: str) -> list[tuple[str, str]]:
    """Tokens as (kind, text); kinds: '(' ')' ',' ':' 'op' 'atom'."""
    tokens: list[tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            tokens.append(("(", "("))
            i += 1
            continue
        if c == ")":
            tokens.append((")", ")"))
            i += 1
            continue
        if c in "[{":
            j = group_end(text, i)
            tokens.append(("atom", " ".join(text[i:j].split())))
            i = j
            continue
        if c in "]}":
            raise UnbalancedDelimiters(f"unexpected {c!r}")
        if c == ",":
            tokens.append((",", ","))
            i += 1
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(("op", two))
            i += 2
            continue
        if c == ":":
            if text[i + 1:i + 2] == "=":
                tokens.append(("op", ":="))
                i += 2
                continue
            tokens.append((":", ":"))
            i += 1
            continue
        if (c == "\\" and text.startswith("\\in", i)
                and not (text[i + 3:i + 4].isalnum() or text[i + 3:i + 4] in ("_", "'"))):
            tokens.append(("op", "\\in"))
            i += 3
            continue
        if c == "*":
            nxt = text[i + 1:i + 2]
            after = text[i + 2:i + 3]
            if nxt == "m" and not (after.isalnum() or after in ("_", "'")):
                tokens.append(("op", "*m"))
                i += 2
                continue
            tokens.append(("op", "*"))
            i += 1
            continue
        if c in "=<>+-/^~":
            tokens.append(("op", c))
            i += 1
            continue
        j = _word_end(text, i)
        if j == i:
            # opaque single character, kept as a leaf
            tokens.append(("atom", c))
            i += 1
            continue
        tokens.append(("atom", text[i:j]))
        i = j
    return tokens


_END = ("end", "")  # appended to every token list, so indexing never runs off it


class _Parser:
    """Precedence climbing over the tokens of one text; every node comes from `intern`.

    intern maps (symbol, *child ids) to the one tree built for it.  Keying on
    ids is sound because the dict holds every node it has returned, so no id
    is reused while it lives, and equal subterms become one object.
    """

    def __init__(self, tokens: list[tuple[str, str]], intern: dict):
        self.tokens = tokens
        self.pos = 0
        self.intern = intern

    def node(self, symbol: str, children: tuple[TermTree, ...] = ()) -> TermTree:
        key = (symbol, *map(id, children))
        tree = self.intern.get(key)
        if tree is None:
            tree = self.intern[key] = TermTree(symbol, children)
        return tree

    def parse_expr(self, min_level: int = 0) -> TermTree:
        """An application, then binary operators binding at min_level or tighter."""
        node = self.parse_application()
        while True:
            kind, op = self.tokens[self.pos]
            level = _OP_LEVEL.get(op) if kind == "op" else None
            if level is None or level < min_level:
                return node
            self.pos += 1
            rhs = self.parse_expr(level if _OP_ASSOC[op] == "right" else level + 1)
            node = self.node(op, (node, rhs))

    def parse_application(self) -> TermTree:
        head = self.parse_atom()
        args = []
        while self.tokens[self.pos][0] in ("(", "atom"):
            args.append(self.parse_atom())
        if not args:
            return head
        if not head.children:
            return self.node(head.symbol, tuple(args))
        return self.node("@", (head, *args))

    def parse_atom(self) -> TermTree:
        tokens = self.tokens
        kind, text = tokens[self.pos]
        if kind == "atom":
            if text in BINDERS:
                return self.parse_binder()
            self.pos += 1
            return self.node(text)
        if kind == "(":
            self.pos += 1
            if tokens[self.pos][0] == ")":
                self.pos += 1
                return self.node("()")
            node = self.parse_expr()
            if tokens[self.pos][0] == ":":
                self.pos += 1
                node = self.node(":", (node, self.parse_expr()))
            if tokens[self.pos][0] == ",":
                items = [node]
                while tokens[self.pos][0] == ",":
                    self.pos += 1
                    items.append(self.parse_expr())
                node = self.node(",", tuple(items))
            if tokens[self.pos][0] != ")":
                raise UnbalancedDelimiters("missing ')'")
            self.pos += 1
            return node
        if kind == "op" and text in _PREFIX:
            self.pos += 1
            return self.node(text, (self.parse_application(),))
        if kind == "end":
            raise UnbalancedDelimiters("unexpected end of statement")
        raise UnbalancedDelimiters(f"unexpected {text!r}")

    def parse_binder(self) -> TermTree:
        tokens = self.tokens
        kw = tokens[self.pos][1]
        sep = ("op", "=>") if kw == "fun" else (",", ",")
        depth = 0
        self.pos += 1
        while (tok := tokens[self.pos]) != sep or depth:
            kind = tok[0]
            if kind == "end":
                raise UnbalancedDelimiters(f"{kw} binder without '{sep[1]}'")
            if kind == "(":
                depth += 1
            elif kind == ")":
                if depth == 0:
                    raise UnbalancedDelimiters("unexpected ')' in binder")
                depth -= 1
            self.pos += 1
        self.pos += 1
        return self.node(kw, (self.parse_expr(),))


def parse_term_tree(text: str, intern: dict | None = None) -> TermTree:
    """Parse statement or goal text into a term tree.

    Trees parsed with the same intern dict share every equal subtree.
    """
    tokens = _lex(text)
    if not tokens:
        raise EmptyStatement("empty statement")
    tokens.append(_END)
    parser = _Parser(tokens, {} if intern is None else intern)
    try:
        node = parser.parse_expr()
    except RecursionError:
        # a few hundred nesting levels exhaust the interpreter stack
        raise TermError("statement nested too deeply") from None
    kind, leftover = tokens[parser.pos]
    if kind != "end":
        raise UnbalancedDelimiters(f"trailing {leftover!r} in statement")
    return node
