"""Exact jet-prolongation engine for pseudogroup orbit computations.

A Scenario describes a bundle R^p x R^q, a family of generating vector
fields whose coefficients are polynomials in the base and order-0 fiber
coordinates and linear in the Taylor coefficients of finitely many free
functions of the base, and coordinate strata (equalities / inequations on
jet coordinates).  The engine measures orbit codimensions by exact rank of
the prolonged generators at seeded random rational points of a stratum.
The base may be empty (p = 0): the fields then act on R^q alone, every
jet space is the fiber itself, and there are no free functions.  The 3D
distribution sub-example is such a scenario, run through the same engine.

The generators are one field, linear in its parameters: the Taylor
coefficients of the free functions, and one parameter per generator for
its function-free part (a fixed generator).  Each parameter gives one
row.  A Scenario parses its generators and positivity once, when built.
A ProlongPlan, built once per engine by Scenario.instantiate,
holds every row as integer forms in the jets, and `prolong` evaluates
them at a point over the base origin; ProlongPlan derives the rows and
builds the forms by expanding each generator term into its entries,
with no polynomial substitution, product or derivative.
Ranks and annihilation read the integer rows at sampled points, a
positive multiple of the true rows.  The sentinel and tangency checks
read the forms themselves, once per engine and once per stratum; the
walk that checks tangency also counts M_k, the parameters that act on
the stratum up to order k.  Rank is lower semicontinuous, so the rank at
any point of the stratum is at most the generic rank, which is at most
min(M_k, d_k), d_k the stratum's dimension in J^k.  A sampled point that
reaches that bound at an order settles the order exactly; only the
orders it leaves open need three seeded points that agree.  On an open
stratum, stratum_codim_sequence certifies freeness at one probe order k*
instead of ranking every order: a point of rank N_k* there (N_k below)
is free at every higher order too, so s_k = d_k - N_k above k* is read
off the closed form and the engine is built at k* only.

Free-function truncation is read off the generators: with r_f the highest
derivative order among a free function's tokens, order-k components read
the jets of f up to order k + r_f, so f is truncated at degree k + r_f,
and each coefficient of degree k + r_f + 1 is a sentinel, which the engine
checks has no row form.  The non-sentinel parameters are the N_k
parameters that act on J^k, counted by Scenario.acting_count off the
same truncation rule.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .algebra import RationalFunction
from .errors import UsageError
from .exprs import ExpressionError, Node, evaluate_node, parse_expression, symbol_names
from .hilbert import HilbertSpec, gf_from_hilbert, hilbert_values_spec
from .jetpoly import NonConstantDivisor, Poly, rank_profile

MultiIndex = tuple[int, ...]
#: A jet monomial: the sorted tuple of its jet columns, one per factor.
Jet = tuple[int, ...]


class OrderExceeded(UsageError):
    """A jet order outside 0..9, or a coordinate past the space's order."""


class BadPoint(UsageError):
    """Point coordinates do not match the jet space."""


class NonlinearParameters(UsageError):
    """An expression multiplied two parameter-carrying factors."""


class InvariantViolation(RuntimeError):
    """A sentinel parameter acted or a generator left its stratum."""


class GenericityFailure(RuntimeError):
    """The ranks at a round's sampled stratum points disagreed, also after
    the retry round, at the orders its first point left below the bound
    min(M_k, d_k); the message names the disagreeing profiles and the
    bound."""


class BadSample(RuntimeError):
    """Could not sample a point satisfying the open conditions."""


class UnknownScenario(UsageError):
    """No built-in scenario with that id."""


@cache
def _multi_indices(p: int, total: int) -> tuple[MultiIndex, ...]:
    """All multi-indices of given total order, descending lexicographic."""
    if p == 0:
        return ((),) if total == 0 else ()
    return tuple(
        (first,) + rest
        for first in range(total, -1, -1)
        for rest in _multi_indices(p - 1, total - first)
    )


#: Highest supported jet order.
_MAX_ORDER = 9

#: A symbol of the expression grammar: the form of a fiber name.
_SYMBOL = "[A-Za-z][A-Za-z0-9_]*"


def _prefix(fiber: str) -> str:
    """The start of a fiber's jet names above order 0 (u, g11_)."""
    return fiber + "_" if fiber[-1].isdigit() else fiber


def _jet_name(fiber: str, sigma: MultiIndex) -> str:
    """The name of u_sigma of the named fiber: its prefix and the
    multi-index digits (u10, g11_20), the bare fiber name at order 0."""
    return _prefix(fiber) + "".join(map(str, sigma)) if any(sigma) else fiber


class JetSpace:
    """Coordinates of J^order(R^p, R^q), p base and q fiber names: base x_i
    and jet u^alpha_sigma.

    Variable ids are assigned deterministically: base variable i is id i, then
    jet coordinates by total order, fiber index, and descending
    lexicographic multi-index (u10 before u01).  The names are the base
    names and then each column's _jet_name; `_jet_index` reads a jet name
    of any order up to _MAX_ORDER back.  `multi_indices` lists the multi-indices
    of orders 0..order in that order, `columns[alpha]` the column of fiber
    alpha at each of them, and `cols_at[m]` is the column count of the
    order-m block J^m, a prefix of the columns.  `plus(rho)` adds the
    multi-index rho to every tau with rho + tau within the order.
    """

    def __init__(self, order: int, base_names: Sequence[str], fiber_names: Sequence[str]):
        if not 0 <= order <= _MAX_ORDER:
            raise OrderExceeded(
                f"jet order {order} is outside the supported range 0..{_MAX_ORDER}"
            )
        self.order = order
        base, fiber = tuple(base_names), tuple(fiber_names)
        p, q = self.p, self.q = len(base), len(fiber)
        self._fibers, self._prefixes = fiber, [_prefix(name) for name in fiber]
        self._names = list(base)
        self.multi_indices: list[MultiIndex] = []
        self.columns: list[list[int]] = [[] for _ in range(q)]
        self.cols_at: list[int] = []
        var = p
        for m in range(order + 1):
            block = _multi_indices(p, m)
            self.multi_indices += block
            for cols, name in zip(self.columns, fiber):
                cols += range(var, var + len(block))
                self._names += (_jet_name(name, sigma) for sigma in block)
                var += len(block)
            self.cols_at.append(var)
        self._by_name = {name: var for var, name in enumerate(self._names)}
        self._index = {sigma: j for j, sigma in enumerate(self.multi_indices)}
        self._factorials = [_factorial(sigma) for sigma in self.multi_indices]
        self._plus: list[dict[int, int] | None] = [None] * len(self.multi_indices)

    def _jet_index(self, name: str) -> tuple[int, MultiIndex] | None:
        """(fiber index, multi-index) of the jet named `name` at any order up
        to _MAX_ORDER, or None; the one reader of _jet_name's names: the first
        fitting fiber prefix and p ASCII digits, read one by one, not all zero,
        summing to at most _MAX_ORDER; failing that, a bare fiber name."""
        for alpha, prefix in enumerate(self._prefixes):
            if len(name) == len(prefix) + self.p and name.startswith(prefix):
                digits = name[len(prefix) :]
                if digits.isascii() and digits.isdigit():
                    sigma = tuple(map("0123456789".index, digits))
                    if 0 < sum(sigma) <= _MAX_ORDER:
                        return alpha, sigma
        return (self._fibers.index(name), (0,) * self.p) if name in self._fibers else None

    def plus(self, rho: int) -> dict[int, int]:
        """{tau: rho + tau} over every tau with |rho + tau| <= order, each
        multi-index given by its index in multi_indices, tau ascending;
        built once per rho."""
        table = self._plus[rho]
        if table is None:
            added = self.multi_indices[rho]
            room = self.order - sum(added)
            table = self._plus[rho] = {
                j: self._index[tuple(map(add, tau, added))]
                for j, tau in enumerate(self.multi_indices)
                if sum(tau) <= room
            }
        return table

    @property
    def dim(self) -> int:
        return len(self._names)

    def jet_var(self, alpha: int, sigma: MultiIndex) -> int:
        try:
            return self.columns[alpha][self._index[sigma]]
        except KeyError:
            raise OrderExceeded(
                f"coordinate u^{alpha}_{sigma} exceeds order {self.order}"
            ) from None

    def name_of(self, var: int) -> str:
        return self._names[var]

    def var_by_name(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise BadPoint(f"unknown coordinate {name!r}") from None

    def coordinate_names(self) -> list[str]:
        return list(self._names)


@dataclass(frozen=True)
class ParamInfo:
    """Descriptor of one global parameter slot."""

    name: str
    sentinel: bool


@cache
def _factorial(sigma: MultiIndex) -> int:
    return prod(factorial(s) for s in sigma)


def _times(value: int | Fraction, multiple: int) -> int:
    """value * multiple, for a multiple of value's denominator."""
    return value.numerator * (multiple // value.denominator)


def _with(jet: Jet, col: int) -> Jet:
    """The jet monomial times the jet on column col."""
    return tuple(sorted((*jet, col))) if jet and jet[-1] > col else (*jet, col)


def _add(acc: dict, key, value: int) -> None:
    """acc[key] += value, dropping the key when the sum is zero."""
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


class ProlongPlan:
    """The point-independent part of `prolong`: a scenario's generators on
    one space as integer row forms in the jets, built once per engine by
    Scenario.instantiate.

    The generators are summed into one field.  Its components xi_i (base)
    and phi_alpha (fiber) are polynomials in the base coordinates
    (variable i), the order-0 fiber coordinates (variable p + alpha, as in
    JetSpace) and tokens (variables from p + q on), with exactly one token
    in each monomial, so the field is linear in its parameters.  A row's
    slot is its parameter index, and `specs[slot]` lists the (token,
    factor c, shift) slices by which that parameter acts.  A free
    function's parameter replaces the function by x^beta, so that each of
    its jet tokens d^gamma reads beta!/(beta - gamma)! x^(beta - gamma): a
    slice (token, beta!/(beta - gamma)!, beta - gamma).  A generator's
    function-free part carries a marker token of its own, read as 1: the
    one slice (marker, 1, zero shift).

    Rows are read over the base origin only: the shipped pseudogroups
    contain the base translations, which act trivially on the fiber jet
    coordinates of the trivialized bundle, so orbit ranks are unchanged.
    There the prolonged component on u^alpha_sigma is

        D^sigma Q_alpha + sum_i xi_i u^alpha_{sigma + e_i},
        Q_alpha = phi_alpha - sum_i xi_i u^alpha_{e_i},

    with D^sigma the total derivative, which along any section with the
    point's jet is d^sigma of Q_alpha(x, u(x), du(x)).  So, with u(x) the
    degree-k Taylor polynomial of the jet, the entry on base column i is
    xi_i(0) and the entry on u^alpha_sigma is

        sigma! [x^sigma] Q_alpha + sum_i xi_i(0) u^alpha_{sigma + e_i},

    with the jets of order k + 1, which cancel between the two terms,
    taken as zero.  Only [x^rho] Q_alpha with |rho| <= k and the degree-0
    part of xi are read, and no product lowers the degree in x, so every
    product is truncated at degree k in the base variables.

    Everything is integral.  With J the lcm of the jet values'
    denominators and D = J k!, the section U = D u has the integer
    coefficients (k!/sigma!) y_sigma, y = J u the scaled jets, since
    sigma! divides k! for |sigma| <= k.  Let L = `denominator`, the lcm of
    the components' coefficient denominators, and M = `degree`, at least
    1, each phi_alpha's fiber degree and one more than each xi_i's.  The
    integral components L xi_i and L phi_alpha, homogenized in the fiber
    variables, give L D^(M-1) xi_i(x, U/D) and L D^M phi_alpha(x, U/D): a
    term with e fiber factors is D^(M-e) (for xi, D^(M-1-e)) times e jets.
    Each of the products xi_i d_i U, the base column (L D^(M-1) xi_i(0)) D
    and the transport (L D^(M-1) xi_i(0)) k! y_{sigma + e_i} adds one
    factor to a degree M - 1 term of xi.  So L D^M Q_alpha has integer
    coefficients, every row entry is a fixed integer polynomial in y and
    D, homogeneous of degree M, and the true row is the integer row over
    the one scale L D^M.

    None of that depends on the point.  The plan expands each term
    c x^a u_{alpha_1} ... u_{alpha_e} t of L times a component (t its one
    token) straight into the terms

        c prod_j (k!/tau_j!) x^(a + sum_j tau_j) t prod_j y_{alpha_j, tau_j},

    kept where |a + sum_j tau_j| <= k, with each jet column a factor of its
    own and D left out; the tau_j of one fiber run over multisets, each
    counted by the number of its orderings.  A sum rho + tau of
    multi-indices is one lookup in the space's table `plus(rho)`, built
    once for each rho that occurs.  The transport -xi_i d_i U_alpha comes
    from each term (rho, t, jet, v) of xi_i as the terms (rho + sigma - e_i,
    t, jet y_{alpha, sigma}, -v (k!/sigma!) sigma_i).  A token and a shift
    fix beta, and so the slot: one table per token maps each shift
    beta - gamma within the order to its (slot, c).  Every coefficient of
    Q_alpha, of x^rho times a token times a jet monomial, gives for each of
    the token's shifts the entry on the column of u^alpha_sigma,
    sigma = rho + shift with |sigma| <= k, times c sigma!; the base-column
    and transport entries come from the terms of xi_i at rho = 0, through
    the token's zero shift.  The power of D is M less the jet degree.  The
    terms are met in the order a truncated polynomial substitution of the
    section would give them, and the forms keep that order.

    `monomials` lists the distinct jet monomials, each a sorted tuple of
    columns, one per factor.  A slot's row form is {column: [(jet
    monomial, int), ...]}, the zero sums left out; `forms` holds one
    (slot, columns, monomials, ints, distinct) per slot whose form is
    nonzero, slots ascending: its terms as parallel tuples of columns,
    indices into `monomials` and ints, and whether no two terms share a
    column, so that each term is an entry of its own.  The plan holds
    ints only.
    """

    __slots__ = ("space", "specs", "denominator", "degree", "monomials", "forms")

    def __init__(
        self,
        space: JetSpace,
        xi: Sequence[Poly],
        phi: Sequence[Poly],
        specs: Sequence[tuple[tuple[int, int, MultiIndex], ...]],
    ):
        p, q, k = space.p, space.q, space.order
        fiber = lambda mono: sum(e for var, e in mono if p <= var < p + q)
        self.space, self.specs = space, tuple(specs)
        self.denominator = lcm(
            *[c.denominator for comp in (*xi, *phi) for c in comp.terms.values()]
        )
        self.degree = max(
            [1]
            + [fiber(mono) + 1 for comp in xi for mono in comp.terms]
            + [fiber(mono) for comp in phi for mono in comp.terms]
        )
        k_factorial, factorials, plus = factorial(k), space._factorials, space.plus
        # per token: {shift: (slot, c)}; a shift past the order reaches no column
        slots: dict[int, dict[int, tuple[int, int]]] = {}
        for slot, spec in enumerate(self.specs):
            for token, c, shift in spec:
                if sum(shift) <= k:
                    slots.setdefault(token, {})[space._index[shift]] = slot, c
        # {(alpha, m): the terms of U_alpha^m}, U_alpha = sum (k!/sigma!) x^sigma y_sigma
        powers: dict[tuple[int, int], list[tuple[Jet, int, int]]] = {}

        def power(alpha: int, m: int) -> list[tuple[Jet, int, int]]:
            """The terms of U_alpha^m, up to degree k in x, as (jet, sum,
            int): one per multiset sigma_1 <= ... <= sigma_m of multi-indices
            with |sum| <= k, lexicographic, its int prod(k!/sigma_j!) times
            the number of its orderings."""
            if not m:
                return [((), 0, 1)]
            if (alpha, m) not in powers:
                cols = space.columns[alpha]
                # the m-th factor, repeated r times: the orderings grow by m / r
                powers[alpha, m] = [
                    (jet + (col,), up, c * (k_factorial // factorials[tau]) * m // r)
                    for jet, s, c in power(alpha, m - 1)
                    for tau, up in plus(s).items()
                    for col in (cols[tau],)
                    if not jet or col >= jet[-1]
                    for r in (1 + jet.count(col),)
                ]
            return powers[alpha, m]

        def expand(comp: Poly) -> dict[tuple[int, int, Jet], int]:
            """{(rho, token, jet): int}: L comp with each u^alpha replaced by
            U_alpha, up to degree k in x, as the coefficients of x^rho times
            a token times a jet monomial, in the order of the truncated
            substitution (comp's terms, and the powers of U_alpha by
            ascending alpha)."""
            out = {}
            for mono, coeff in comp.terms.items():
                *factors, (token, _) = mono
                a, groups = [0] * p, []
                for var, e in factors:
                    if var < p:
                        a[var] = e
                    else:
                        groups.append((var - p, e))
                if sum(a) > k:
                    continue
                terms = [(space._index[tuple(a)], (), _times(coeff, self.denominator))]
                for alpha, m in groups:
                    grown = []
                    for rho, jet, v in terms:
                        at = plus(rho)
                        for factor, s, c in power(alpha, m):
                            if s in at:
                                grown.append((at[s], jet + factor, v * c))
                    terms = grown
                for rho, jet, v in terms:
                    out[rho, token, tuple(sorted(jet)) if len(groups) > 1 else jet] = v
            return out

        xis = [expand(comp) for comp in xi]
        # per i: (sigma - e_i, sigma, k!/sigma! sigma_i), d_i of U's term at
        # sigma; e_i is multi-index 1 + i, and J^0 has none
        derivatives = [
            [
                (down, sigma, k_factorial // factorials[sigma] * space.multi_indices[sigma][i])
                for down, sigma in (plus(1 + i).items() if k else ())
            ]
            for i in range(p)
        ]
        # per slot: {(column, jet monomial): int}
        sums: list[dict[tuple[int, Jet], int]] = [{} for _ in self.specs]
        for i, xi_i in enumerate(xis):
            for (rho, token, jet), v in xi_i.items():
                if rho or 0 not in slots.get(token, {}):
                    continue  # only xi_i(0) is read, through the token's unshifted slot
                # on base column i times D, and on each u^alpha_rho times k! y_{rho + e_i}
                slot, c = slots[token][0]
                value, acc = c * v, sums[slot]
                acc[i, jet] = acc.get((i, jet), 0) + value
                for cols in space.columns:
                    for down, sigma, _ in derivatives[i]:
                        key = cols[down], _with(jet, cols[sigma])
                        acc[key] = acc.get(key, 0) + value * k_factorial
        for alpha, cols in enumerate(space.columns):
            q_alpha = expand(phi[alpha])
            for i, xi_i in enumerate(xis):
                # the transport -xi_i d_i U_alpha, as truncated products
                product: dict[tuple[int, int, Jet], int] = {}
                for (rho, token, jet), v in xi_i.items():
                    at = plus(rho)
                    for down, sigma, d in derivatives[i]:
                        if down in at:
                            key = at[down], token, _with(jet, cols[sigma])
                            _add(product, key, v * d)
                for key, v in product.items():
                    _add(q_alpha, key, -v)
            for (rho, token, jet), v in q_alpha.items():
                to = slots.get(token, {})
                for shift, sigma in plus(rho).items():
                    if shift in to:
                        slot, c = to[shift]
                        acc, key = sums[slot], (cols[sigma], jet)
                        acc[key] = acc.get(key, 0) + c * factorials[sigma] * v
        index: dict[Jet, int] = {}  # jet monomial: its index in monomials
        forms = []
        for slot, acc in enumerate(sums):
            form = [
                (col, index.setdefault(jet, len(index)), c) for (col, jet), c in acc.items() if c
            ]
            if form:
                cols = {col for col, _, _ in form}
                forms.append((slot, *zip(*form), len(cols) == len(form)))
        self.monomials = tuple(index)
        self.forms = tuple(forms)


def prolong(
    plan: ProlongPlan, point: Mapping[int, Fraction]
) -> tuple[int, dict[int, dict[int, int]]]:
    """Nonzero tangent rows of the prolonged generators at a jet point, as
    (scale, {param: {column: int}}): the true row is row / scale.

    One row per parameter, in parameter order, over all coordinates of the
    space, with the zero entries left out; the base point must be the
    origin.  ProlongPlan derives the rows: here `prolong` reads J, D = J k!
    and the integer jets y, evaluates each of the plan's jet monomials
    once, D^(M - degree) times the product of its jets, and sums each
    entry's terms; `scale` is L D^M.
    """
    space = plan.space
    p, m = space.p, plan.degree
    if any(point[i] for i in range(p)):
        raise BadPoint("tangent rows are evaluated over the base origin only")
    jet_scale = lcm(*[point[var].denominator for var in range(p, space.dim)])
    d = jet_scale * factorial(space.order)
    y = [_times(point[var], jet_scale) for var in range(space.dim)]
    powers = [d**j for j in range(m + 1)]
    values = [powers[m - len(jet)] * prod(map(y.__getitem__, jet)) for jet in plan.monomials]
    out = {}
    for slot, cols, jets, ints, distinct in plan.forms:
        terms = zip(cols, map(mul, ints, map(values.__getitem__, jets)))
        # every entry of an x-reparam form is one term; summing those terms
        # anyway makes strata-demo about 7 % slower (2-core Xeon, Python 3.11)
        if distinct:
            row = {col: c for col, c in terms if c}
        else:
            row = {}
            for col, value in terms:
                row[col] = row.get(col, 0) + value
            row = {col: c for col, c in row.items() if c}
        if row:
            out[slot] = row
    return plan.denominator * powers[m], out


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StratumCase:
    """A coordinate stratum: vanishing jet coordinates plus open conditions."""

    label: str
    equalities: tuple[str, ...] = ()
    inequations: tuple[str, ...] = ()

    def __post_init__(self):
        overlap = set(self.equalities) & set(self.inequations)
        if overlap:
            raise ValueError(f"coordinates {sorted(overlap)} both zero and nonzero")


def _required(data: Mapping, key: str, where: str):
    """data[key], or a ValueError naming the key and `where` it is missing."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{where} has no {key!r}") from None


class Scenario:
    """Declarative description of a pseudogroup action on a trivial bundle.

    Built from a plain dict (JSON-compatible), so new examples need no code:

        {"id": ..., "base": [names], "fiber": [names],
         "free_functions": [names],
         "generators": [{"xi": [exprs], "phi": [exprs]}, ...],
         "strata": [{"label": ..., "equalities": [...], "inequations": [...]}],
         "invariants": {label: [rational exprs]},          # optional
         "positivity": [rational exprs required > 0]}      # optional

    "id", "base", "fiber", "generators", each generator's "xi" and "phi"
    and each stratum's "label" are required: a missing one is a
    ValueError naming it and where it is missing.  "free_functions" and
    "strata" may be left out; other keys are ignored.  Base names are
    single letters, and fiber and free-function names
    symbols of the expression grammar ([A-Za-z][A-Za-z0-9_]*); no two
    coordinates, nor a coordinate and a free function, share a name, no
    free function is named twice and no two strata share a label.  Generator
    expressions use base names, order-0 fiber names, and free-function jet
    tokens f, f_x, f_xy, ... (suffix letters are base names); each free
    function belongs to the single generator using it.  They are
    polynomials and may divide by constants only.  Invariants and
    positivity conditions are rational expressions in jet coordinates,
    evaluated exactly at each sampled point; a sample where one of them
    divides by zero is redrawn.  A positivity symbol must be a base name
    or a jet coordinate's name (of any order up to 9).

    After those checks the generators and positivity are parsed, once,
    and their errors raised here (a positivity syntax error names its
    text).  The generators sum to one field, `xi` (base) and `phi`
    (fiber), with one token in each monomial (ProlongPlan).  Its parameter
    `blocks` go generator by generator, each (name, r, (variable, gamma)
    tokens): a nonzero function-free part is ("fixed[i]", None), read off
    a marker token of its own, and each free function f it names follows
    as (f, r_f), r_f the highest |gamma| among f's tokens.  `positivity`
    holds the parsed conditions, `positivity_order` the highest jet order
    they name.
    """

    def __init__(self, data: Mapping):
        self.id: str = _required(data, "id", "the scenario")
        where = f"scenario {self.id!r}"
        self.base: tuple[str, ...] = tuple(_required(data, "base", where))
        self.fiber: tuple[str, ...] = tuple(_required(data, "fiber", where))
        self.free_functions: tuple[str, ...] = tuple(data.get("free_functions", ()))
        self.generators: tuple[Mapping, ...] = tuple(_required(data, "generators", where))
        self.strata: dict[str, StratumCase] = {}
        for index, raw in enumerate(data.get("strata", ())):
            case = StratumCase(
                label=_required(raw, "label", f"stratum {index} of {where}"),
                equalities=tuple(raw.get("equalities", ())),
                inequations=tuple(raw.get("inequations", ())),
            )
            if case.label in self.strata:
                raise ValueError(f"{where} has two strata labelled {case.label!r}")
            self.strata[case.label] = case
        self.invariants: dict[str, tuple[str, ...]] = {
            label: tuple(exprs)
            for label, exprs in dict(data.get("invariants", {})).items()
        }
        positivity = tuple(data.get("positivity", ()))
        self.p = len(self.base)
        self.q = len(self.fiber)
        for kind, names, form in (
            ("base", self.base, "[A-Za-z]"),
            ("fiber", self.fiber, _SYMBOL),
            ("free function", self.free_functions, _SYMBOL),
        ):
            for name in names:
                if not re.fullmatch(form, name):
                    raise ValueError(f"{kind} name {name!r} is not of the form {form}")
        if self.free_functions and not self.base:
            raise ValueError(f"{where} has free functions but an empty base")
        # A jet name above order 0 is a prefix and p digits, so the first two
        # coordinates of J^_MAX_ORDER that share a name, in column order, are
        # among J^1's and the jets that fiber names read as (u1 beside u)
        space = self.space(1)
        describe = lambda kind, i, sigma=(): (
            f"base {self.base[i]!r}" if kind == "base"
            else f"the jet {sigma} of fiber {self.fiber[i]!r}" if any(sigma)
            else f"fiber {self.fiber[i]!r}"
        )
        jets = {(alpha, sigma) for alpha in range(self.q) for sigma in space.multi_indices}
        jets |= set(map(space._jet_index, self.fiber))
        named = [(name, ("base", i)) for i, name in enumerate(self.base)] + [
            (_jet_name(self.fiber[alpha], sigma), ("jet", alpha, sigma))
            for alpha, sigma in sorted(jets, key=lambda j: (sum(j[1]), j[0], [-s for s in j[1]]))
        ]
        table: dict[str, tuple] = {}
        for name, coordinate in named:
            if table.setdefault(name, coordinate) is not coordinate:
                raise ValueError(
                    f"{describe(*table[name])} and {describe(*coordinate)} are both named {name!r}"
                )
        # a free function named like a coordinate: its tokens would shadow
        # it; one named twice would give two parameter blocks
        for name in self.free_functions:
            if self.free_functions.count(name) > 1:
                raise ValueError(f"free function name {name!r} is repeated")
            if name in self.base or space._jet_index(name):
                kind = "base" if name in self.base else "fiber" if name in self.fiber else "jet"
                raise ValueError(f"free function name {name!r} is a {kind} coordinate's name")
        # the sampler evaluates positivity at points of jet coordinates
        self.positivity_order = 0
        for text in positivity:
            for name in sorted(symbol_names(text)):
                jet = space._jet_index(name)
                if name not in self.base and not jet:
                    raise ValueError(
                        f"positivity {text!r} of {where} names {name!r}, "
                        "which is neither a base name nor a jet coordinate"
                    )
                self.positivity_order = max(self.positivity_order, sum(jet[1]) if jet else 0)
        first_token = self.p + self.q
        blocks: list[tuple[str, int | None, tuple[tuple[int, MultiIndex], ...]]] = []
        xi_sum, phi_sum = [Poly.zero()] * self.p, [Poly.zero()] * self.q
        first = first_token  # the next generator's first token variable
        for index, gen in enumerate(self.generators):
            tokens: dict[str, tuple[int, str, MultiIndex]] = {}

            def resolve(name: str) -> Poly:
                if name not in tokens:
                    found = self._token(name)
                    if found is not None:
                        tokens[name] = (first + len(tokens),) + found
                if name in tokens:
                    var = tokens[name][0]
                elif name in self.base:
                    var = self.base.index(name)
                elif name in self.fiber:
                    var = self.p + self.fiber.index(name)
                else:
                    raise ExpressionError(f"unknown symbol {name!r} in a generator of {where}")
                return Poly.variable(var)

            def component(text: str) -> Poly:
                try:
                    poly = evaluate_node(parse_expression(text), Poly.constant, resolve)
                except ZeroDivisionError as exc:
                    raise ExpressionError(f"{exc} in a generator of {where}") from None
                except NonConstantDivisor:
                    raise NonlinearParameters(
                        "division by a non-constant polynomial in a field component"
                    ) from None
                for mono in poly.terms:
                    if sum(e for var, e in mono if var >= first_token) > 1:
                        raise NonlinearParameters("product of two parameter-carrying expressions")
                return poly

            entry = f"generator {index} of {where}"
            xi = tuple(map(component, _required(gen, "xi", entry)))
            phi = tuple(map(component, _required(gen, "phi", entry)))
            if len(xi) != self.p or len(phi) != self.q:
                raise ValueError("generator component count must match p and q")
            marker = first + len(tokens)
            first = marker + 1
            # a monomial without a token (the token sorts last) gets the marker
            fixed = lambda mono: not mono or mono[-1][0] < first_token
            if any(fixed(mono) for comp in (*xi, *phi) for mono in comp.terms):
                blocks.append((f"fixed[{index}]", None, ((marker, (0,) * self.p),)))
            marked = lambda comp: Poly({
                mono + ((marker, 1),) if fixed(mono) else mono: c
                for mono, c in comp.terms.items()
            })
            xi_sum = [a + marked(b) for a, b in zip(xi_sum, xi)]
            phi_sum = [a + marked(b) for a, b in zip(phi_sum, phi)]
            orders = _derivative_orders(tokens.values())
            for fname in self.free_functions:
                if fname in orders:
                    named = tuple((var, gamma) for var, f, gamma in tokens.values() if f == fname)
                    blocks.append((fname, orders[fname], named))
        self.xi, self.phi, self.blocks = tuple(xi_sum), tuple(phi_sum), tuple(blocks)
        self.positivity: tuple[Node, ...] = ()
        for text in positivity:
            try:
                self.positivity += (parse_expression(text),)
            except ExpressionError as exc:
                raise ExpressionError(f"positivity {text!r} of {where}: {exc}") from None

    def space(self, order: int) -> JetSpace:
        return JetSpace(order, self.base, self.fiber)

    def stratum(self, stratum: StratumCase | str) -> StratumCase:
        """The stratum of that label; a StratumCase is returned as it is."""
        if isinstance(stratum, StratumCase):
            return stratum
        try:
            return self.strata[stratum]
        except KeyError:
            raise UnknownScenario(
                f"scenario {self.id!r} has no stratum {stratum!r}"
            ) from None

    # -- generator instantiation ----------------------------------------

    def cutoffs(self, order: int) -> list[int]:
        """The degree each block is truncated at on J^order, the one rule
        that `instantiate` and `acting_count` read: k + r_f for a free
        function (order-k components read its jets up to order k + r_f),
        0 for a fixed generator, whose one parameter is the constant 1 on
        its marker token."""
        return [0 if r is None else order + r for _, r, _ in self.blocks]

    def acting_count(self, order: int) -> int:
        """N_order, the non-sentinel parameters on J^order: the C(p + c, p)
        monomials x^beta with |beta| <= c per block cut at degree c."""
        return sum(comb(self.p + cutoff, self.p) for cutoff in self.cutoffs(order))

    def instantiate(self, space: JetSpace) -> tuple[ProlongPlan, list[ParamInfo]]:
        """The parsed field as one ProlongPlan on `space`, each free
        function truncated at the order its tokens read.

        The parameters go block by block, each cut at `cutoffs`.  A fixed
        generator is one parameter.  A free function f gives its monomial
        coefficients up to degree k + r_f (k the space's order), and then
        those of degree k + r_f + 1, every one a sentinel, which must act
        trivially: the engine checks that it has no row form.
        """
        params: list[ParamInfo] = []
        specs: list[tuple[tuple[int, int, MultiIndex], ...]] = []
        for (name, r, tokens), cutoff in zip(self.blocks, self.cutoffs(space.order)):
            top = cutoff if r is None else cutoff + 1  # a fixed generator has no sentinel
            for beta in (b for m in range(top + 1) for b in _multi_indices(self.p, m)):
                spec = []
                for var, gamma in tokens:
                    if all(g <= b for g, b in zip(gamma, beta)):
                        shift = tuple(b - g for b, g in zip(beta, gamma))
                        spec.append((var, _factorial(beta) // _factorial(shift), shift))
                specs.append(tuple(spec))
                sentinel = sum(beta) > cutoff
                label = name if r is None else f"{name}[{beta}]" + ("#sentinel" if sentinel else "")
                params.append(ParamInfo(name=label, sentinel=sentinel))
        return ProlongPlan(space, self.xi, self.phi, specs), params

    def _token(self, name: str) -> tuple[str, MultiIndex] | None:
        """(function, gamma) of a free-function jet token f, f_x, f_xy, ..."""
        for fname in self.free_functions:
            if name == fname:
                return fname, (0,) * self.p
            if name.startswith(fname + "_"):
                gamma = [0] * self.p
                for ch in name[len(fname) + 1 :]:
                    if ch not in self.base:
                        raise ExpressionError(
                            f"bad derivative suffix {name!r}: {ch!r} is not a base variable"
                        )
                    gamma[self.base.index(ch)] += 1
                return fname, tuple(gamma)
        return None


def _derivative_orders(tokens: Iterable[tuple[int, str, MultiIndex]]) -> dict[str, int]:
    """{f: r_f}, the highest |gamma| among each function's (var, f, gamma) tokens."""
    orders: dict[str, int] = {}
    for _, fname, gamma in tokens:
        orders[fname] = max(orders.get(fname, 0), sum(gamma))
    return orders


# ---------------------------------------------------------------------------
# Points, rows, ranks
# ---------------------------------------------------------------------------


#: Draws of a stratum point before its conditions give up (BadSample).
#: The metric positivity g11 > 0, g11 g22 > g12^2 accepts about 12 % of
#: the draws, so a point is lost once in about 1e56.
_SAMPLE_TRIES = 1000

#: The values of a drawn jet coordinate: n/d for -20 <= n <= 20 and
#: 1 <= d <= 20, one entry per (n, d) pair, so one uniform choice is
#: Fraction(randint(-20, 20), randint(1, 20)); a nonvanishing coordinate
#: draws from the pairs with n != 0.
_VALUES = tuple(Fraction(n, d) for n in range(-20, 21) for d in range(1, 21))
_NONZERO = tuple(value for value in _VALUES if value)

#: Seeded stratum points at which an invariant must be annihilated.
_ANNIHILATION_POINTS = 20


def stratum_columns(space: JetSpace, stratum: StratumCase) -> tuple[list[int], list[int]]:
    """(vanishing columns, nonvanishing columns) of a coordinate stratum.

    Every name the stratum uses must be a jet coordinate of the space's
    fibers at some order up to _MAX_ORDER, as JetSpace._jet_index reads it
    (BadPoint names the stratum and the name); a name of one of the
    space's jet columns is one, so only the other names are decoded.  A
    condition above the space's order is dropped: the stratum projects
    onto J^order as the conditions it sets up to that order.
    """
    for name in stratum.equalities + stratum.inequations:
        if space._by_name.get(name, -1) < space.p and space._jet_index(name) is None:
            raise BadPoint(
                f"stratum {stratum.label!r} names {name!r}, which is not a jet coordinate"
            )
    columns = lambda names: [space._by_name[name] for name in names if name in space._by_name]
    return columns(stratum.equalities), columns(stratum.inequations)


def sample_stratum_point(
    space: JetSpace,
    stratum: StratumCase,
    rng: random.Random,
    positivity: Sequence[Node] = (),
    defined: Sequence[Node] = (),
) -> dict[int, Fraction]:
    """Seeded random rational stratum point {column: value}: base at the
    origin, jet columns drawn in column order, one rng.choice each.

    Vanishing stratum_columns are 0, nonvanishing ones drawn from
    _NONZERO, the rest from _VALUES.  The parsed positivity expressions
    must evaluate positive at the point and the `defined` ones must
    evaluate at all; a point where one fails or divides by zero is
    redrawn whole, up to _SAMPLE_TRIES draws (then BadSample).
    """
    zeros, nonzeros = map(set, stratum_columns(space, stratum))
    draws = [
        (var, _NONZERO if var in nonzeros else _VALUES)
        for var in range(space.p, space.dim)
        if var not in zeros
    ]
    origin = dict.fromkeys(range(space.dim), Fraction(0))
    for _ in range(_SAMPLE_TRIES):
        point = origin | {var: rng.choice(values) for var, values in draws}
        value = lambda name: point[space.var_by_name(name)]
        try:
            for node in defined:
                evaluate_node(node, Fraction, value)
            if all(evaluate_node(e, Fraction, value) > 0 for e in positivity):
                return point
        except ZeroDivisionError:
            pass
    raise BadSample(
        f"could not sample a point of stratum {stratum.label!r} "
        f"after {_SAMPLE_TRIES} tries"
    )


class _Dual:
    """A value at a point with its gradient {var: derivative}: forward-mode
    differentiation, so an invariant is differentiated where it is evaluated.
    Both operands of every operation are _Duals (literals embed as _Dual)."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad: dict[int, Fraction] | None = None):
        self.value = Fraction(value)
        self.grad = grad or {}

    def _combine(self, a: Fraction, other: "_Dual", b: Fraction) -> dict[int, Fraction]:
        """a * grad(self) + b * grad(other)."""
        out = {var: a * d for var, d in self.grad.items()}
        for var, d in other.grad.items():
            out[var] = out.get(var, 0) + b * d
        return out

    def __add__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.value + other.value, self._combine(1, other, 1))

    def __neg__(self) -> "_Dual":
        return _Dual(-self.value, {var: -d for var, d in self.grad.items()})

    def __sub__(self, other: "_Dual") -> "_Dual":
        return self + -other

    def __mul__(self, other: "_Dual") -> "_Dual":
        grad = self._combine(other.value, other, self.value)
        return _Dual(self.value * other.value, grad)

    def __truediv__(self, other: "_Dual") -> "_Dual":
        """The quotient rule: d(f/g) = (df - (f/g) dg) / g."""
        if not other.value:
            raise ZeroDivisionError("division by zero at the point")
        q = self.value / other.value
        return _Dual(q, self._combine(1 / other.value, other, -q / other.value))

    def __pow__(self, exponent: int) -> "_Dual":
        if exponent < 0:
            return _Dual(1) / self**-exponent
        if exponent == 0:
            return _Dual(1)
        scale = exponent * self.value ** (exponent - 1)
        return _Dual(self.value**exponent, {var: scale * d for var, d in self.grad.items()})


class _StratumEngine:
    """The one route from a scenario to tangent rows and ranks at one order.

    The scenario's parsed generators are instantiated once here, into one
    ProlongPlan; the sampler evaluates its parsed positivity.  Every
    stratum, sample point and invariant check of the scenario at this
    order reuses the plan, `prolong` evaluates its rows at each
    {column: value} point, and stratum_columns gives each stratum's
    columns.  The sentinel parameters must act trivially, which is read
    off the plan once, here: no sentinel may have a row form
    (InvariantViolation, whatever the stratum).  A form keeps only its
    nonzero sums, one term per (column, jet monomial), so a sentinel's
    form is a nonzero polynomial in the jets and acts at generic points.
    The engine holds no random state: each caller seeds its own generator.
    """

    def __init__(self, scenario: Scenario, k_max: int):
        self.scenario = scenario
        self.k_max = k_max
        self.space = scenario.space(k_max)
        self.plan, self.params = scenario.instantiate(self.space)
        if any(self.params[slot].sentinel for slot, *_ in self.plan.forms):
            raise InvariantViolation("sentinel parameter acts nontrivially: truncated too low")
        self.cols_at = self.space.cols_at

    def acting_counts(self, stratum: StratumCase) -> list[int]:
        """M_k for k = 0..k_max: the number of parameters that act on the
        stratum up to order k, read off the plan's forms with no point
        drawn; raise InvariantViolation where a row entry on a vanishing
        column of the stratum is not identically zero on it, naming the
        first such column in the stratum's order.

        The true entry is sum_m c_m u^m / (L k!^|m|) over its terms, one
        per jet monomial m (ProlongPlan).  On the stratum a term whose
        monomial holds a vanishing column is zero, and the remaining
        monomials are distinct, hence independent, polynomials in the free
        jets.  So an entry vanishes on the whole stratum exactly when none
        of its terms remains; otherwise it is nonzero on a dense open part
        of the stratum, where a sampled point would see it.  A remaining
        term on a vanishing column is a generator leaving the stratum.  On
        a tangent stratum a parameter's row, cut to J^k, is nonzero
        somewhere on it exactly when a term remains on a column of J^k, so
        a slot counts from the lowest column that keeps a term.  At every
        point of the stratum the rank at order k is at most M_k, and at
        most d_k, the columns of J^k less the vanishing ones.
        """
        zeros, _ = stratum_columns(self.space, stratum)
        vanishing, monomials = set(zeros), self.plan.monomials
        acting, lowest, past = set(), [], self.space.dim
        for _, cols, jets, _, _ in self.plan.forms:
            kept = [col for col, jet in zip(cols, jets) if vanishing.isdisjoint(monomials[jet])]
            acting.update(vanishing.intersection(kept))
            lowest.append(min((col for col in kept if col not in vanishing), default=past))
        for col in zeros:
            if col in acting:
                raise InvariantViolation(
                    f"generator not tangent to stratum {stratum.label!r} "
                    f"at coordinate {self.space.name_of(col)!r}"
                )
        return [sum(col < cut for col in lowest) for cut in self.cols_at]

    def _dims(self, stratum: StratumCase) -> list[int]:
        """d_k for k = 0..k_max: the columns of J^k less the stratum's
        vanishing ones."""
        zeros, _ = stratum_columns(self.space, stratum)
        return [cut - sum(col < cut for col in zeros) for cut in self.cols_at]

    def sampled_ranks(
        self, stratum: StratumCase, seed: int, free: int | None = None
    ) -> list[int] | None:
        """Orbit rank at each order 0..k_max on the stratum, once
        acting_counts has found the generators tangent to it.

        The rank at any point of the stratum is at most the generic rank
        (rank is lower semicontinuous, so it is largest on a dense open
        part of the stratum), and the generic rank is at most the bound
        min(M_k, d_k) of acting_counts.  So an order where the first point
        of a seeded round reaches the bound is settled exactly by that
        point, and a round that settles every order ends there.
        Otherwise the round draws two more points from the same stream,
        whose ranks must agree with the first point's up to the last order
        it leaves open (ranks below that order are compared too, and those
        above it are not computed).  One retry round, then
        GenericityFailure, which names the disagreeing profiles and the
        bound.  With `free` given, the first point is a probe: unless its
        rank at k_max is `free`, None is returned after that one point.
        """
        bound = list(map(min, self.acting_counts(stratum), self._dims(stratum)))
        rng = random.Random(seed)

        def ranks(cuts: Sequence[int]) -> list[int]:
            point = sample_stratum_point(self.space, stratum, rng, self.scenario.positivity)
            return rank_profile(prolong(self.plan, point)[1].values(), cuts)

        for _ in range(2):
            first = ranks(self.cols_at)
            if free is not None and first[-1] != free:
                return None
            free = None
            open_orders = [k for k, (r, b) in enumerate(zip(first, bound)) if r != b]
            if not open_orders:
                return first
            cuts = self.cols_at[: open_orders[-1] + 1]
            others = [ranks(cuts) for _ in range(2)]
            disagree = [other for other in others if other != first[: len(cuts)]]
            if not disagree:
                return first
        raise GenericityFailure(
            f"ranks inconsistent across samples for stratum {stratum.label!r}: "
            f"{first[: len(cuts)]} vs {disagree[0]}; bound {bound[: len(cuts)]}"
        )

    def codim_sequence(
        self, stratum: StratumCase | str, seed: int
    ) -> tuple[list[int], list[int]]:
        """(s_k, h_k) for one stratum, every order ranked on this engine;
        see stratum_codim_sequence."""
        stratum = self.scenario.stratum(stratum)
        dims = self._dims(stratum)  # checks that every name is a jet
        for name in stratum.equalities:
            if sum(self.space._jet_index(name)[1]) > self.k_max:
                raise OrderExceeded(
                    f"stratum {stratum.label!r} sets {name!r} to zero, "
                    f"which is not a coordinate of jet order {self.k_max}"
                )
        return _codims(dims, self.sampled_ranks(stratum, seed))

    def annihilates(self, invariant: str, stratum: StratumCase, seed: int) -> bool:
        """True iff the derivative of the invariant along every tangent row,
        row . grad, vanishes at _ANNIHILATION_POINTS seeded stratum points.
        The invariant is parsed once and must evaluate at each sampled
        point (the sampler redraws where it divides by zero), where it is
        evaluated with its gradient, once acting_counts has found the
        generators tangent to the stratum."""
        self.acting_counts(stratum)
        node = parse_expression(invariant)
        rng = random.Random(seed)
        for _ in range(_ANNIHILATION_POINTS):
            point = sample_stratum_point(
                self.space, stratum, rng, self.scenario.positivity, (node,)
            )

            def coordinate(name: str) -> _Dual:
                var = self.space.var_by_name(name)
                return _Dual(point[var], {var: 1})

            grad = evaluate_node(node, _Dual, coordinate).grad
            for row in prolong(self.plan, point)[1].values():
                if sum(row.get(c, 0) * d for c, d in grad.items()):
                    return False
        return True


def _codims(dims: Sequence[int], ranks: Sequence[int]) -> tuple[list[int], list[int]]:
    """(s_k, h_k) from the stratum's dimensions d_k and orbit ranks:
    s_k = d_k - rank_k, h_0 = s_0 and h_k = s_k - s_(k-1)."""
    s = [dim - rank for dim, rank in zip(dims, ranks)]
    return s, s[:1] + [b - a for a, b in zip(s, s[1:])]


def stratum_codim_sequence(
    scenario: Scenario,
    stratum: StratumCase | str,
    k_max: int,
    seed: int,
) -> tuple[list[int], list[int]]:
    """Orbit codimensions s_k inside the stratum and increments h_k, k = 0..k_max.

    The rank at any point of the stratum is at most the generic rank
    (rank is lower semicontinuous), and the generic rank is at most
    min(M_k, d_k): M_k the parameters acting on the stratum up to order
    k, d_k its dimension in J^k.  So each seeded round's first point
    settles every order where its rank reaches that bound.  Two more
    points of the round must agree with it at the orders it leaves open,
    and only there (one retry round, then GenericityFailure).  The engine
    checks that no sentinel acts and that the generators are tangent to
    the stratum, each once off the plan's forms, before any point is
    drawn.  A vanishing condition above k_max raises OrderExceeded.

    On an open stratum (no equalities) freeness is certified at one probe
    order k*, the first k in 1..k_max - 1 with N_k < d_k, N_k the
    non-sentinel parameters on J^k (Scenario.acting_count), and no lower
    than the highest jet the positivity names (Scenario.positivity_order).  The engine is built at
    k*, and when its round's first point has rank N_k* there the round is
    finished on it and s_k = d_k - N_k for every k > k*; otherwise the
    order-k_max engine runs from the same seed, as without the probe.
    This is exact, the persistence of freeness (Olver and Pohjanpelto,
    "Moving frames for Lie pseudogroups", Canad. J. Math. 2008):
      1. A parameter of degree m + r_f, m >= 1, vanishes to order m at the
         base origin, so it first acts on the order-m jets, and there only
         through its symbol s_m(P)_sigma = s_0(d_sigma P), whose
         coefficients are fixed by the point's jets of order <= 1.
      2. Let rank = N at order k0 >= 1.  Then s_k0 is injective.  A
         combination P of the parameters acting on J^k, k > k0, with zero
         row has zero projection to J^k0, which kills every parameter of
         order <= k0; for the lowest remaining order m, d_tau P lies in
         ker s_k0 for every |tau| = m - k0, so P = 0.
      3. So rank_k = N_k, for every k > k0, at every point over the probe
         point, and that is the generic rank on the open stratum.
    No float, modular or probabilistic step is used.
    """
    space = scenario.space(k_max)  # refuses an order outside 0..9 first
    stratum = scenario.stratum(stratum)
    counts = [scenario.acting_count(k) for k in range(k_max + 1)]
    orders = range(max(1, scenario.positivity_order), k_max)
    probe = next((k for k in orders if counts[k] < space.cols_at[k]), None)
    if probe is not None and not stratum.equalities:
        ranks = _StratumEngine(scenario, probe).sampled_ranks(stratum, seed, counts[probe])
        if ranks is not None:
            return _codims(space.cols_at, ranks + counts[probe + 1 :])
    return _StratumEngine(scenario, k_max).codim_sequence(stratum, seed)


def annihilation_check(
    scenario: Scenario,
    invariant: str,
    stratum: StratumCase | str,
    seed: int,
) -> bool:
    """True iff the invariant's derivative along every generator row vanishes
    at _ANNIHILATION_POINTS seeded random stratum points.

    The invariant is a rational expression in coordinates, checked at the
    order of the highest jet it names (as JetSpace._jet_index reads it; any
    other name is a BadPoint before an engine is built), on a stratum the
    generators are tangent to, whose conditions above that order
    stratum_columns drops; a point where it divides by zero is resampled.
    """
    stratum = scenario.stratum(stratum)
    decode = scenario.space(0)._jet_index
    jets = {name: decode(name) for name in symbol_names(invariant) - set(scenario.base)}
    if unknown := sorted(name for name, jet in jets.items() if jet is None):
        raise BadPoint(
            f"invariant {invariant!r} names {unknown[0]!r}, which is not a jet coordinate"
        )
    order = max((sum(sigma) for _, sigma in jets.values()), default=0)
    return _StratumEngine(scenario, order).annihilates(invariant, stratum, seed)


# ---------------------------------------------------------------------------
# Built-in scenarios and the worked demos
# ---------------------------------------------------------------------------

#: pseudogroup (x, y, u) -> (X(x, y), y + c1, u + c2) acting on scalar
#: functions u(x, y); generators f(x, y) d/dx, d/dy, d/du
X_REPARAM = {
    "id": "x-reparam",
    "base": ["x", "y"],
    "fiber": ["u"],
    "free_functions": ["f"],
    "generators": [
        {"xi": ["f", "0"], "phi": ["0"]},
        {"xi": ["0", "1"], "phi": ["0"]},
        {"xi": ["0", "0"], "phi": ["1"]},
    ],
    "strata": [
        {"label": "sigma0", "equalities": [], "inequations": ["u10"]},
        {"label": "sigma1", "equalities": ["u10"], "inequations": ["u20"]},
        {"label": "sigma2", "equalities": ["u10", "u20"], "inequations": ["u11"]},
        {
            "label": "sigma3",
            "equalities": ["u10", "u20", "u11"],
            "inequations": ["u30"],
        },
        {
            "label": "sigma4",
            "equalities": ["u10", "u20", "u11", "u30"],
            "inequations": ["u21"],
        },
        {
            "label": "sigma5",
            "equalities": ["u10", "u20", "u11", "u30", "u21"],
            "inequations": ["u12"],
        },
        {
            "label": "sigma6",
            "equalities": ["u10", "u20", "u11", "u30", "u21", "u12"],
            "inequations": ["u40"],
        },
    ],
    "invariants": {
        "sigma1": [
            "u01",
            "u02 - u11^2/u20",
            "u03 - (u11^3/u20^3)*u30 + 3*(u11^2/u20^2)*u21 - 3*(u11/u20)*u12",
        ],
        "sigma2": [
            "u01",
            "u30/u11^3",
            "u40/u11^4 - 6*u30*u21/u11^5 + 3*u02*u30^2/u11^6",
        ],
        "sigma3": [
            "u01",
            "u02",
            "u03 + 2*u21^3/u30^2 - 3*u21*u12/u30",
            "(u30*u12 - u21^2)^3/u30^4",
        ],
    },
}

#: full diffeomorphism pseudogroup of the plane lifted to metric coefficients
METRIC2D = {
    "id": "metric2d",
    "base": ["x", "y"],
    "fiber": ["g11", "g12", "g22"],
    "free_functions": ["a", "b"],
    "generators": [
        {
            "xi": ["a", "b"],
            "phi": [
                "-(2*g11*a_x + 2*g12*b_x)",
                "-(g11*a_y + g12*b_y + g12*a_x + g22*b_x)",
                "-(2*g12*a_y + 2*g22*b_y)",
            ],
        }
    ],
    "strata": [{"label": "generic", "equalities": [], "inequations": []}],
    "positivity": ["g11", "g11*g22 - g12^2"],
}

#: the involutive pair X = 2r d/dr + s d/ds, Y = r d/ds + 2s d/dt on
#: (r, s, t), as fields on a bundle over a point (empty base)
DISTRIBUTION3D = {
    "id": "distribution3d",
    "base": [],
    "fiber": ["r", "s", "t"],
    "generators": [
        {"xi": [], "phi": ["2*r", "s", "0"]},
        {"xi": [], "phi": ["0", "r", "2*s"]},
    ],
    "strata": [
        {"label": "r != 0", "equalities": [], "inequations": ["r"]},
        {"label": "r = 0, s != 0", "equalities": ["r"], "inequations": ["s"]},
        {"label": "r = s = 0", "equalities": ["r", "s"], "inequations": []},
    ],
}

BUILTIN_SCENARIOS = {
    "x-reparam": X_REPARAM,
    "metric2d": METRIC2D,
    "distribution3d": DISTRIBUTION3D,
}


def get_scenario(scenario_id: str) -> Scenario:
    try:
        return Scenario(BUILTIN_SCENARIOS[scenario_id])
    except KeyError:
        raise UnknownScenario(
            f"unknown scenario {scenario_id!r}; built-in: {sorted(BUILTIN_SCENARIOS)}"
        ) from None


@dataclass(frozen=True)
class StratumRow:
    label: str
    h: tuple[int, ...]
    counting_function: RationalFunction
    note: str


def lie_example_table(k_max: int = 7, seed: int = 2024) -> list[StratumRow]:
    """Orbit-codimension table of the x-reparametrization pseudogroup.

    Runs the rank engine over the singular strata sigma0..sigma6 up to
    k_max and fits each row's counting function by hilbert_values_spec with
    confirm = 1: the d-th differences must vanish on the last d + 1 values
    (three equal ones for a constant tail), and a row that shows no such
    tail raises HorizonTooShort.  The final row is the
    infinite stratum, handled analytically (the residual action there is
    the three translations, leaving one new invariant per order).
    """
    engine = _StratumEngine(get_scenario("x-reparam"), k_max)
    rows = []
    for label, stratum in engine.scenario.strata.items():
        _, h = engine.codim_sequence(stratum, seed)
        rows.append(
            StratumRow(
                label=label,
                h=tuple(h),
                counting_function=gf_from_hilbert(hilbert_values_spec(h, confirm=1)),
                note=f"fit verified to k_max={k_max} only",
            )
        )
    inf_spec = HilbertSpec({}, 1, [1])
    rows.append(
        StratumRow(
            label="sigma-infinity",
            h=tuple(inf_spec.values(k_max)),
            counting_function=gf_from_hilbert(inf_spec),
            note="analytic: residual action is the three translations",
        )
    )
    return rows


# ---------------------------------------------------------------------------
# The 3D distribution sub-example
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionReport:
    stratum: str
    rank: int
    checks: tuple[tuple[str, bool], ...]


def distribution_example(seed: int = 77) -> list[DistributionReport]:
    """Rank and invariant checks for the 3D involutive pair on (r, s, t).

    The vector fields X = 2r d/dr + s d/ds and Y = r d/ds + 2s d/dt form
    the built-in empty-base scenario `distribution3d`, run at jet order 0
    on one engine like every other scenario.  On the open stratum r != 0 the
    candidate invariant t - s^2/r is annihilated by both fields while the
    commonly quoted variant t - s^2/t is not; both outcomes are reported,
    nothing is silently corrected.
    """
    engine = _StratumEngine(get_scenario("distribution3d"), 0)
    candidates = {"r != 0": ("t - s^2/r", "t - s^2/t"), "r = s = 0": ("t",)}
    return [
        DistributionReport(
            stratum=label,
            rank=engine.sampled_ranks(stratum, seed + 1)[0],
            checks=tuple(
                (f"{text} annihilated", engine.annihilates(text, stratum, seed))
                for text in candidates.get(label, ())
            ),
        )
        for label, stratum in engine.scenario.strata.items()
    ]
