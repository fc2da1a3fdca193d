"""Formula evaluation: Notes list semantics over an AST.

Every formula value is a list. Operators broadcast: arithmetic pairs
elements (the shorter side padded with its last element); comparisons use
the Notes any-pair rule (``Categories = "x"`` is true when *any* category
matches — the idiom view selection formulas rely on); ``&``/``|``/``!`` work
on truth values and yield ``[1]``/``[0]``.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Any

from repro.errors import FormulaEvalError
from repro.formula import nodes
from repro.formula.functions import FUNCTIONS, truth
from repro.formula.parser import parse


class EvalContext:
    """Everything a formula can see while it runs."""

    def __init__(
        self,
        doc=None,
        db=None,
        user: str = "anonymous",
        clock=None,
        rng: random.Random | None = None,
    ) -> None:
        self.doc = doc
        self.db = db
        self.user = user
        self.clock = clock if clock is not None else getattr(db, "clock", None)
        self._rng = rng
        self.temps: dict[str, list] = {}
        self.field_writes: dict[str, list] = {}
        self.selected: bool | None = None
        self.wants_children = False
        self.wants_descendants = False
        self._unique = 0

    @property
    def rng(self) -> random.Random:
        """The generator ``@Random`` draws from; seeded on first use,
        since most formulas never draw."""
        if self._rng is None:
            self._rng = random.Random(0)
        return self._rng

    def next_unique(self) -> int:
        self._unique += 1
        return self._unique

    # -- field access ----------------------------------------------------

    def has_field(self, name: str) -> bool:
        if name in self.field_writes or name in self.temps:
            return True
        return self.doc is not None and name in self.doc

    def read_field(self, name: str) -> list:
        if name in self.temps:
            return self.temps[name]
        if name in self.field_writes:
            return self.field_writes[name]
        if self.doc is not None and name in self.doc:
            return self.doc.get_list(name)
        return [""]

    def write_field(self, name: str, value: list) -> None:
        self.field_writes[name] = value


def _as_pairs(left: list, right: list) -> list[tuple]:
    """Pair elements for broadcasting; shorter side padded with last element."""
    if not left or not right:
        raise FormulaEvalError("cannot operate on an empty value")
    size = max(len(left), len(right))
    return [
        (left[min(i, len(left) - 1)], right[min(i, len(right) - 1)])
        for i in range(size)
    ]


def _arith(op: str, left: list, right: list) -> list:
    result = []
    for a, b in _as_pairs(left, right):
        both_text = isinstance(a, str) and isinstance(b, str)
        if op == "+" and both_text:
            result.append(a + b)
            continue
        if isinstance(a, str) or isinstance(b, str):
            raise FormulaEvalError(
                f"operator {op!r} needs matching types, got {a!r} and {b!r}"
            )
        if op == "+":
            result.append(a + b)
        elif op == "-":
            result.append(a - b)
        elif op == "*":
            result.append(a * b)
        elif op == "/":
            if b == 0:
                raise FormulaEvalError("division by zero")
            result.append(a / b)
    return result


def _compare(op: str, left: list, right: list) -> list:
    """Any-pair comparison returning [1] or [0]."""

    def pair_ok(a: Any, b: Any) -> bool:
        if isinstance(a, str) != isinstance(b, str):
            if op == "=":
                return False
            if op == "!=":
                return True
            raise FormulaEvalError(
                f"cannot order {a!r} against {b!r} with {op!r}"
            )
        if isinstance(a, str):
            a, b = a.lower(), b.lower()  # Notes text compares case-insensitively
        if op == "=":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == ">":
            return a > b
        if op == "<=":
            return a <= b
        return a >= b

    hit = any(pair_ok(a, b) for a in left for b in right)
    return [1 if hit else 0]


class Formula:
    """A compiled formula ready to run against documents."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.program = parse(source)

    # -- public API --------------------------------------------------------

    def evaluate(
        self,
        doc=None,
        db=None,
        user: str = "anonymous",
        clock=None,
        rng: random.Random | None = None,
    ) -> list:
        """Run the formula; returns the value of its last statement."""
        ctx = EvalContext(doc=doc, db=db, user=user, clock=clock, rng=rng)
        return self.run(ctx)

    def select(self, doc, db=None, user: str = "anonymous", clock=None) -> bool:
        """Run as a selection formula; returns whether ``doc`` is selected.

        A formula without a SELECT statement selects a document when its
        final value is true (matching how ad-hoc selections behave).
        """
        selected, _, _ = self.select_ex(doc, db=db, user=user, clock=clock)
        return selected

    def select_ex(
        self, doc, db=None, user: str = "anonymous", clock=None
    ) -> tuple[bool, bool, bool]:
        """Selection plus hierarchy flags.

        Returns ``(selected, wants_children, wants_descendants)`` — the view
        layer includes a response document whose own selection is false when
        a hierarchy flag is set and an ancestor is selected.
        """
        ctx = EvalContext(doc=doc, db=db, user=user, clock=clock)
        last = self.run(ctx)
        selected = ctx.selected if ctx.selected is not None else truth(last)
        return selected, ctx.wants_children, ctx.wants_descendants

    def run(self, ctx: EvalContext) -> list:
        last: list = [""]
        for statement in self.program.statements:
            last = self._exec(statement, ctx)
        return last

    # -- statement / expression dispatch -------------------------------------

    def _exec(self, node, ctx: EvalContext) -> list:
        if isinstance(node, nodes.Select):
            # @AllChildren/@AllDescendants set ctx flags during evaluation;
            # the view layer combines ctx.selected with ancestry resolution.
            value = self._eval(node.expr, ctx)
            ctx.selected = truth(value)
            return [1 if ctx.selected else 0]
        if isinstance(node, nodes.Assign):
            ctx.temps[node.name] = self._eval(node.expr, ctx)
            return ctx.temps[node.name]
        if isinstance(node, nodes.FieldAssign):
            value = self._eval(node.expr, ctx)
            ctx.temps.pop(node.name, None)
            ctx.write_field(node.name, value)
            return value
        if isinstance(node, nodes.Default):
            if not ctx.has_field(node.name):
                ctx.write_field(node.name, self._eval(node.expr, ctx))
            return ctx.read_field(node.name)
        return self._eval(node, ctx)

    def _eval(self, node, ctx: EvalContext) -> list:
        if isinstance(node, nodes.Literal):
            return list(node.value)
        if isinstance(node, nodes.FieldRef):
            return ctx.read_field(node.name)
        if isinstance(node, nodes.ListExpr):
            combined: list = []
            for part in node.parts:
                combined.extend(self._eval(part, ctx))
            return combined
        if isinstance(node, nodes.UnaryOp):
            return self._eval_unary(node, ctx)
        if isinstance(node, nodes.BinaryOp):
            return self._eval_binary(node, ctx)
        if isinstance(node, nodes.FuncCall):
            return self._eval_call(node, ctx)
        raise FormulaEvalError(f"cannot evaluate node {node!r}")

    def _eval_unary(self, node: nodes.UnaryOp, ctx: EvalContext) -> list:
        value = self._eval(node.operand, ctx)
        if node.op == "!":
            return [0 if truth(value) else 1]
        if node.op == "-":
            try:
                return [-element for element in value]
            except TypeError as exc:
                raise FormulaEvalError(f"cannot negate {value!r}") from exc
        return value  # unary '+'

    def _eval_binary(self, node: nodes.BinaryOp, ctx: EvalContext) -> list:
        if node.op == "&":
            left = self._eval(node.left, ctx)
            if not truth(left):
                return [0]
            return [1 if truth(self._eval(node.right, ctx)) else 0]
        if node.op == "|":
            left = self._eval(node.left, ctx)
            if truth(left):
                # Still evaluate the right side if it could set view flags
                # (@AllDescendants on the right of '|' is the common idiom).
                if _mentions_hierarchy(node.right):
                    self._eval(node.right, ctx)
                return [1]
            return [1 if truth(self._eval(node.right, ctx)) else 0]
        left = self._eval(node.left, ctx)
        right = self._eval(node.right, ctx)
        if node.op in ("+", "-", "*", "/"):
            return _arith(node.op, left, right)
        return _compare(node.op, left, right)

    def _eval_call(self, node: nodes.FuncCall, ctx: EvalContext) -> list:
        spec = FUNCTIONS.get(node.name)
        if spec is None:
            raise FormulaEvalError(f"unknown function {node.name}")
        count = len(node.args)
        if count < spec.min_args or (spec.max_args is not None and count > spec.max_args):
            raise FormulaEvalError(
                f"{node.name} takes "
                f"{spec.min_args}..{spec.max_args if spec.max_args is not None else '∞'} "
                f"arguments, got {count}"
            )
        if spec.lazy:
            return spec.impl(ctx, node.args, self._eval)
        args = [self._eval(arg, ctx) for arg in node.args]
        return spec.impl(ctx, *args)


def _mentions_hierarchy(node) -> bool:
    """Whether a subtree contains @AllChildren/@AllDescendants."""
    if isinstance(node, nodes.FuncCall):
        if node.name in ("@allchildren", "@alldescendants"):
            return True
        return any(_mentions_hierarchy(arg) for arg in node.args)
    if isinstance(node, nodes.BinaryOp):
        return _mentions_hierarchy(node.left) or _mentions_hierarchy(node.right)
    if isinstance(node, nodes.UnaryOp):
        return _mentions_hierarchy(node.operand)
    if isinstance(node, nodes.ListExpr):
        return any(_mentions_hierarchy(part) for part in node.parts)
    return False


@lru_cache(maxsize=512)
def compile_formula(source: str) -> Formula:
    """Compile formula source text; raises FormulaSyntaxError on bad input.

    Compilation is memoized: views, agents, and selective replication
    frequently share a selection source, and a compiled ``Formula`` is
    immutable (all run state lives in the per-evaluation ``EvalContext``),
    so one instance can serve every caller. Syntax errors are not cached —
    ``lru_cache`` only stores successful results.
    """
    return Formula(source)
