"""Text form for query plans.

Prefix operator calls with a small infix predicate language:

    select(speed > 1 and ram <= 1024, table(pc))
    project([model, price], sort(price, desc, table(pc)))
    groupby([speed], price, union(table(a), table(b)))

Comparisons accept = == != <> < > <= >=; grouping columns are a single
name or a bracketed list. Errors carry the character offset they were
raised at.
"""

from __future__ import annotations

import re

from hequel import plans
from hequel.errors import ParseError
from hequel.relalg import And, Cmp, ColRef, Lit, Not, Or
from hequel.schema import Schema

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<op><=|>=|==|!=|<>|[=<>(),\[\]])
""", re.VERBOSE)

_CMP_CANON = {"=": "=", "==": "=", "!=": "!=", "<>": "!=",
              "<": "<", ">": ">", "<=": "<=", ">=": ">="}

# each plan node's word is its wire tag, except GroupBySum's
_WORDS = {"groupby" if cls is plans.GroupBySum else plans.NODES[cls].tag: cls
          for cls in plans.PLAN_NODES}
_WORD_OF = {cls: word for word, cls in _WORDS.items()}
# the binary predicate connectives, loosest first; each word is its wire tag
_BINARY = (Or, And)


def is_name(text: str) -> bool:
    """Whether ``text`` is a single name token, so a plan can name it."""
    m = _TOKEN_RE.match(text)
    return m is not None and m.lastgroup == "name" and m.end() == len(text)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        kind, got, pos = self.next()
        if got != value:
            raise ParseError(f"expected {value!r}, found {got or 'end'!r}", pos)

    def expect_name(self, what: str = "name") -> str:
        kind, got, pos = self.next()
        if kind != "name":
            raise ParseError(f"expected {what}, found {got or 'end'!r}", pos)
        return got

    # plans -------------------------------------------------------------

    def plan(self):
        kind, word, pos = self.next()
        if kind != "name":
            raise ParseError(f"expected an operator, found {word or 'end'!r}", pos)
        if word not in _WORDS:
            raise ParseError(f"unknown operator {word!r}", pos)
        cls = _WORDS[word]
        self.expect("(")
        args = []
        for name, field_kind in plans.node_fields(cls):
            if args:
                self.expect(",")
            args.append(self.field(name, field_kind))
        self.expect(")")
        return cls(*args)

    def field(self, name: str, kind: str):
        if kind == "plan":
            return self.plan()
        if kind == "pred":
            return self.pred()
        if kind == "tuple[str, ...]":
            return self.cols()
        if kind == "bool":
            _, direction, pos = self.next()
            if direction not in ("asc", "desc"):
                raise ParseError(
                    f"expected asc or desc, found {direction or 'end'!r}", pos)
            return direction == "asc"
        return self.expect_name("table name" if name == "name" else "column")

    def cols(self) -> tuple[str, ...]:
        kind, value, pos = self.peek()
        if value != "[":
            return (self.expect_name("column"),)
        self.next()
        names = []
        if self.peek()[1] != "]":
            names.append(self.expect_name("column"))
            while self.peek()[1] == ",":
                self.next()
                names.append(self.expect_name("column"))
        self.expect("]")
        return tuple(names)

    # predicates ----------------------------------------------------------

    def pred(self, level: int = 0):
        """A predicate whose connectives bind at least as tight as
        ``_BINARY[level]``; past the table's end, ``not`` and then an atom."""
        if level == len(_BINARY):
            if self.peek()[1] == "not":
                self.next()
                return Not(self.pred(level))
            return self.pred_atom()
        cls = _BINARY[level]
        node = self.pred(level + 1)
        while self.peek()[1] == plans.NODES[cls].tag:
            self.next()
            node = cls(node, self.pred(level + 1))
        return node

    def pred_atom(self):
        if self.peek()[1] == "(":
            self.next()
            node = self.pred()
            self.expect(")")
            return node
        left = self.operand()
        kind, op, pos = self.next()
        if op not in _CMP_CANON:
            raise ParseError(f"expected a comparison, found {op or 'end'!r}", pos)
        right = self.operand()
        return Cmp(_CMP_CANON[op], left, right)

    def operand(self):
        kind, value, pos = self.next()
        if kind == "name":
            return ColRef(value)
        if kind == "int":
            return Lit(int(value))
        raise ParseError(
            f"expected a column or integer, found {value or 'end'!r}", pos)


def parse(text: str):
    """Parse plan text to an (untyped) plan tree."""
    parser = _Parser(text)
    plan = parser.plan()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", pos)
    return plan


def parse_plan(text: str, catalog: dict[str, Schema]):
    """Parse and typecheck plan text against a catalog of schemas."""
    plan = parse(text)
    plans.typecheck(plan, catalog)
    return plan


def _pred_to_text(pred, parent_level: int = 0, right_side: bool = False) -> str:
    # binding strength: _BINARY's connectives 1.., then not, then comparisons
    if isinstance(pred, Cmp):
        if not {type(pred.left), type(pred.right)} <= {ColRef, Lit}:
            raise ValueError(f"cannot render an operand of {pred!r}")
        left, right = (side.name if isinstance(side, ColRef) else str(side.value)
                       for side in (pred.left, pred.right))
        return f"{left} {pred.op} {right}"
    if isinstance(pred, Not):
        return f"not {_pred_to_text(pred.child, len(_BINARY) + 1)}"
    if type(pred) not in _BINARY:
        raise ValueError(f"cannot render predicate {pred!r}")
    level = _BINARY.index(type(pred)) + 1
    text = (f"{_pred_to_text(pred.left, level)} {plans.NODES[type(pred)].tag} "
            f"{_pred_to_text(pred.right, level, right_side=True)}")
    # the parser is left-associative, so a same-level right child needs parens
    if level < parent_level or (level == parent_level and right_side):
        return f"({text})"
    return text


def plan_to_text(plan) -> str:
    """Render a plan back to parseable text (inverse of ``parse`` for plans
    without pre-encrypted literals)."""
    if type(plan) not in _WORD_OF:
        raise ValueError(f"cannot render plan {plan!r}")
    parts = []
    for name, kind in plans.node_fields(type(plan)):
        value = getattr(plan, name)
        if kind == "plan":
            value = plan_to_text(value)
        elif kind == "pred":
            value = _pred_to_text(value)
        elif kind == "tuple[str, ...]":
            value = f"[{', '.join(value)}]"
        elif kind == "bool":
            value = "asc" if value else "desc"
        parts.append(value)
    return f"{_WORD_OF[type(plan)]}({', '.join(parts)})"
