from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincount.exprs import (
    BinOp,
    ExpressionError,
    Neg,
    Num,
    Pow,
    Sym,
    _degrees,
    evaluate_node,
    parse_expression,
    parse_rational_function,
)
from poincount.algebra import RationalFunction

from oracles import ratfun_parse


def render(node) -> str:
    """Fully parenthesized text that parses back to `node`."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Neg):
        return f"-({render(node.operand)})"
    if isinstance(node, Pow):
        return f"({render(node.base)})^{node.exponent}"
    return f"({render(node.left)}) {node.op} ({render(node.right)})"


def degree_bound(node) -> int:
    """A bound on the degrees of an unreduced numerator and denominator."""
    if isinstance(node, Num):
        return 0
    if isinstance(node, Sym):
        return 1
    if isinstance(node, Neg):
        return degree_bound(node.operand)
    if isinstance(node, Pow):
        return abs(node.exponent) * degree_bound(node.base)
    return degree_bound(node.left) + degree_bound(node.right)


_Z = Sym("z")
_LEAVES = [Num(0), Num(1), Num(2), Num(3), _Z]
_LEAVES += [BinOp("-", Num(1), _Z), BinOp("+", Num(1), _Z), BinOp("-", Num(2), _Z)]

_ASTS = st.recursive(
    st.sampled_from(_LEAVES),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.integers(-3, 3)),
        # a sum or difference of two quotients, usually over different denominators
        st.builds(
            BinOp,
            st.sampled_from("+-"),
            st.builds(BinOp, st.just("/"), children, children),
            st.builds(BinOp, st.just("/"), children, children),
        ),
    ),
    max_leaves=14,
)


def _outcome(parse, text):
    try:
        f = parse(text)
    except ExpressionError as exc:
        return type(exc), str(exc)
    return f.num.coeffs, f.den.coeffs


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_ASTS.filter(lambda node: degree_bound(node) <= 40).map(render))
@example("(z-z)/(z-z)")
@example("0^-1")
@example("1/(z - z^2 - z*(1-z))")  # zero only once the parts cancel
@example("+".join(["1/(1+z)+1/(1-z)"] * 60))
@example("(1/(1-z) + 1/(1-z^2)) / (z/(1+z) - 2/(1-z)^2) - (1+z)^-2")
@example("(2*z - 3*z^2 + z^4)^9 / (6 - 4*z^3)^12 + (z^2)^-3 * (3*z^3 - z^5)^4")
def test_parse_matches_node_by_node_evaluation(text):
    assert _outcome(parse_rational_function, text) == _outcome(ratfun_parse, text)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_ASTS)
def test_render_round_trips(node):
    assert parse_expression(render(node)) == node


def test_high_power_quotient_cancels():
    assert parse_rational_function("(1-z)^300/(1-z)^299") == parse_rational_function("1 - z")


def _degree(coeffs) -> int:
    return max((i for i, c in enumerate(coeffs) if c), default=-1)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_ASTS.filter(lambda node: degree_bound(node) <= 40))
def test_degree_walk_bounds_the_unreduced_quotient(node):
    # the walk that refuses a closed form before it is evaluated bounds the
    # degrees of the numerator and denominator that the arithmetic builds
    try:
        value = evaluate_node(node, RationalFunction.from_scalar, lambda _: RationalFunction.z())
    except ZeroDivisionError:
        return
    num, den, _ = value._q
    n, d = _degrees(node)
    assert _degree(num) <= n and _degree(den) <= d
