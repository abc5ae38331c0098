"""Term trees for lemma statements and proof goals, plus a small precedence parser."""

from __future__ import annotations

import re
from dataclasses import dataclass


class TermError(ValueError):
    """A statement, goal or tactic line that cannot be parsed, whatever the reason."""


@dataclass(frozen=True, slots=True)
class TermTree:
    """Ordered tree keyed by head symbol; leaves have no children."""

    symbol: str
    children: tuple["TermTree", ...] = ()

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

_OPERATORS = frozenset(("=>", "->", "||", "&&", "==", "!=", "<=", ">=", "<>", "++", "\\/", "/\\", "::", ":=",
                        "\\in", "*m", "*", "=", "<", ">", "+", "-", "/", "^", "~"))
# tokens that end an application; "(" starts an argument, and "" ends every token list
_APP_STOP = _OPERATORS | {")", ",", ":", ""}
_CLOSERS = {"(": ")", "[": "]", "{": "}"}

# str.isdigit: the decimal digits of `\d` and the other Unicode digits (superscripts, circled
# numbers, ...); a test checks it against every code point
_DIGIT = ("\\d\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089\u2460-\u2468"
          "\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff\u2776-\u277e\u2780-\u2788\u278a-\u2792"
          "\U00010a40-\U00010a43\U00010e60-\U00010e68\U00011052-\U0001105a\U0001f100-\U0001f10a")
# One token, the first alternative that matches: an operator or punctuation mark; a word
# (`\w` is str.isalnum plus `_`) that keeps qualified names, `m.+1` and `n`!` whole;
# else one opaque character.
_TOKEN_RE = re.compile(
    r"=>|->|\|\||&&|==|!=|<=|>=|<>|\+\+|\\/|/\\|::|:=|\\in(?![\w'])|\*m(?![\w'])|[(),:*=<>+\-/^~]"
    rf"|\\?(?:[\w'%]|`[!\w'%]*|\.(?=\w)|\.\+(?=[{_DIGIT}]))+|\S")
_BRACKET_RE = re.compile(r"[\[\]{}]")


def group_end(text: str, start: int) -> int:
    """End index (exclusive) of the balanced group opening at start."""
    stack = []
    for i in range(start, len(text)):
        c = text[i]
        if c in _CLOSERS:
            stack.append(_CLOSERS[c])
        elif c in ")]}":
            if not stack or stack[-1] != c:
                raise TermError(f"mismatched {c!r}")
            stack.pop()
            if not stack:
                return i + 1
    raise TermError(f"unclosed {text[start]!r}")


def _lex(text: str) -> list[str]:
    """Tokens as strings; a `[..]` or `{..}` group is one token, its whitespace runs made one space."""
    tokens: list[str] = []
    i = 0
    while bracket := _BRACKET_RE.search(text, i):
        j = bracket.start()
        tokens += _TOKEN_RE.findall(text, i, j)
        c = text[j]
        if c in "]}":
            raise TermError(f"unexpected {c!r}")
        i = group_end(text, j)
        tokens.append(" ".join(text[j:i].split()))
    tokens += _TOKEN_RE.findall(text, i)
    return tokens


class _Parser:
    """Precedence climbing over the tokens of one text; every node comes from `intern`.

    A token's kind is its text: an operator, one of `( ) , :`, the closing "",
    or else an atom.  intern maps (symbol, *child ids) to the one tree built
    for it.  Keying on ids is sound because the dict holds every node it has
    returned, so no id is reused while it lives, and equal subterms become
    one object.
    """

    def __init__(self, tokens: list[str], intern: dict):
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
            op = self.tokens[self.pos]
            level = _OP_LEVEL.get(op)
            if level is None or level < min_level:
                return node
            self.pos += 1
            rhs = self.parse_expr(level if _OP_ASSOC[op] == "right" else level + 1)
            node = self.node(op, (node, rhs))

    def parse_application(self) -> TermTree:
        head = self.parse_atom()
        args = []
        while self.tokens[self.pos] not in _APP_STOP:
            args.append(self.parse_atom())
        if not args:
            return head
        if not head.children:
            return self.node(head.symbol, tuple(args))
        return self.node("@", (head, *args))

    def parse_atom(self) -> TermTree:
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok == "(":
            self.pos += 1
            if tokens[self.pos] == ")":
                self.pos += 1
                return self.node("()")
            node = self.parse_expr()
            if tokens[self.pos] == ":":
                self.pos += 1
                node = self.node(":", (node, self.parse_expr()))
            if tokens[self.pos] == ",":
                items = [node]
                while tokens[self.pos] == ",":
                    self.pos += 1
                    items.append(self.parse_expr())
                node = self.node(",", tuple(items))
            if tokens[self.pos] != ")":
                raise TermError("missing ')'")
            self.pos += 1
            return node
        if tok not in _APP_STOP:
            if tok in BINDERS:
                return self.parse_binder()
            self.pos += 1
            # node(tok), inlined: most nodes are atoms
            key = (tok,)
            tree = self.intern.get(key)
            if tree is None:
                tree = self.intern[key] = TermTree(tok)
            return tree
        if tok in _PREFIX:
            self.pos += 1
            return self.node(tok, (self.parse_application(),))
        if not tok:
            raise TermError("unexpected end of statement")
        raise TermError(f"unexpected {tok!r}")

    def parse_binder(self) -> TermTree:
        tokens = self.tokens
        kw = tokens[self.pos]
        sep = "=>" if kw == "fun" else ","
        depth = 0
        self.pos += 1
        while (tok := tokens[self.pos]) != sep or depth:
            if not tok:
                raise TermError(f"{kw} binder without '{sep}'")
            if tok == "(":
                depth += 1
            elif tok == ")":
                if depth == 0:
                    raise TermError("unexpected ')' in binder")
                depth -= 1
            self.pos += 1
        self.pos += 1
        return self.node(kw, (self.parse_expr(),))


def parse_term_tree(text: str, intern: dict | None = None) -> TermTree:
    """Parse statement or goal text into a term tree.

    Trees parsed with the same intern dict share every equal subtree.  The
    dict also maps each text parsed with it to its tree (a str key, which no
    tuple node key equals), so a repeated text is not parsed again: its parse
    would return the very same object.  A text that fails is not stored.
    """
    if intern is None:
        intern = {}
    tree = intern.get(text)
    if tree is not None:
        return tree
    tokens = _lex(text)
    if not tokens:
        raise TermError("empty statement")
    tokens.append("")
    parser = _Parser(tokens, intern)
    try:
        tree = parser.parse_expr()
    except RecursionError:
        # a few hundred nesting levels exhaust the interpreter stack
        raise TermError("statement nested too deeply") from None
    leftover = tokens[parser.pos]
    if leftover:
        raise TermError(f"trailing {leftover!r} in statement")
    intern[text] = tree
    return tree


def interned_symbols(intern: dict) -> set[str]:
    """The symbols of every node parsed with intern: the heads of its tuple keys.

    Every tuple key is a node of a returned tree, save the head leaf of an
    application whose head symbol moves to the application node, so the set is
    the symbols of the trees returned, provided no parse with intern failed.
    """
    return {key[0] for key in intern if type(key) is tuple}
