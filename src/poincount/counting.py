"""Jet-space dimension combinatorics and counting plans.

The counting functions here reproduce, order by order, the orbit-dimension
bookkeeping behind each catalog entry: symbol dimensions of the structure
bundle (possibly corrected by an equation, via an Euler characteristic),
the fiber of the transformation group at each order, and the stabilizer
dimensions at generic jets.  A CountingPlan packages one structure's rows:

    h(k) = symbol_dim(k) - delta_dim(k + r) + stab(k) - stab(k - 1)

with explicit overrides for the finitely many low orders where the generic
row does not apply (stab(-1) = 0 by convention: no group of order zero
fixes a point).  plan_values evaluates the rows, which the CLI's rederive
compares with the catalog order by order; assemble_hilbert also fits the
eventually-polynomial tail, giving an independent cross-check of the
closed-form catalog sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .algebra import UnsupportedArgument, binomial
from .errors import UsageError
from .exprs import MAX_N
from .hilbert import HilbertSpec, hilbert_values_spec


class UnknownSymbol(UsageError):
    """No counting plan with that id is shipped."""


class InconsistentPlan(ValueError):
    """A counting plan assembled a negative row."""


def dim_sym(n: int, k: int) -> int:
    """dim S^k T* on an n-dimensional space: C(n+k-1, k); zero for k < 0."""
    if n < 1:
        raise UnsupportedArgument("n must be >= 1")
    return binomial(n + k - 1, k)


def dim_delta(n: int, k: int) -> int:
    """dim S^k T* (x) T = n * C(n+k-1, k): top-order fiber of the jet group."""
    if n < 1:
        raise UnsupportedArgument("n must be >= 1")
    return n * binomial(n + k - 1, k)


def _zero(_: int) -> int:
    return 0


@dataclass(frozen=True)
class CountingPlan:
    """One structure's orbit-dimension bookkeeping.

    base_dim is the dimension of the underlying manifold; delta_dim defaults
    to the full diffeomorphism fiber dim_delta(base_dim, m) and can be
    replaced when the acting pseudogroup is smaller (e.g. generated by
    scalar Hamiltonians).
    """

    base_dim: int
    order: int
    symbol_dim: Callable[[int], int]
    stabilizer_dim: Callable[[int], int] = _zero
    overrides: Mapping[int, int] = field(default_factory=dict)
    delta_dim: Optional[Callable[[int], int]] = None

    def delta(self, m: int) -> int:
        if self.delta_dim is not None:
            return self.delta_dim(m)
        return dim_delta(self.base_dim, m)

    def row(self, k: int) -> int:
        if k in self.overrides:
            return self.overrides[k]
        stab_prev = self.stabilizer_dim(k - 1) if k > 0 else 0
        return (
            self.symbol_dim(k)
            - self.delta(k + self.order)
            + self.stabilizer_dim(k)
            - stab_prev
        )


def plan_values(plan: CountingPlan, k_max: int) -> list[int]:
    """Plan rows h(k) for k = 0..k_max; a negative row is an InconsistentPlan."""
    values = []
    for k in range(k_max + 1):
        v = plan.row(k)
        if v < 0:
            raise InconsistentPlan(f"assembled h({k}) = {v} < 0")
        values.append(v)
    return values


def assemble_hilbert(plan: CountingPlan, k_max: int = 48) -> HilbertSpec:
    """Evaluate plan rows for k = 0..k_max and fit the eventually-polynomial spec."""
    return hilbert_values_spec(plan_values(plan, k_max))


# ---------------------------------------------------------------------------
# Shipped plans, one per structure whose counting argument the package
# re-derives.  Each builder returns the plan for a given parameter n.
# ---------------------------------------------------------------------------


def plan_linear_connections(n: int) -> CountingPlan:
    symbol = lambda k: n**3 * dim_sym(n, k)
    if n == 2:
        # torsion has a unique nonzero orbit; its 2-dim stabilizer resolves
        # at the 1-jet level
        return CountingPlan(
            base_dim=n,
            order=2,
            symbol_dim=symbol,
            stabilizer_dim=lambda k: 2 if k == 0 else 0,
            overrides={0: 0},
        )
    return CountingPlan(
        base_dim=n,
        order=2,
        symbol_dim=symbol,
        overrides={0: n**3 - n**2 - n * binomial(n + 1, 2)},
    )


def plan_symmetric_connections(n: int) -> CountingPlan:
    rank = n * binomial(n + 1, 2)
    symbol = lambda k: rank * dim_sym(n, k)
    overrides = {
        1: symbol(1) - dim_delta(n, 1) - dim_delta(n, 3) + (1 if n == 2 else 0)
    }
    if n == 2:
        overrides[2] = symbol(2) - dim_delta(n, 4) - 1
    return CountingPlan(base_dim=n, order=2, symbol_dim=symbol, overrides=overrides)


def plan_metric_connections(n: int) -> CountingPlan:
    def symbol(k: int) -> int:
        if k == 0:
            return binomial(n + 1, 2) + n * binomial(n, 2)
        # staggered pair: (k+1)-jet of the metric, k-jet of the torsion,
        # so the group fiber index shifts to k+2 (order 2)
        return binomial(n + 1, 2) * binomial(n + k, k + 1) + n * binomial(
            n, 2
        ) * dim_sym(n, k)

    return CountingPlan(
        base_dim=n,
        order=2,
        symbol_dim=symbol,
        # order 0 is the plain (metric, torsion) value pair acted on by GL
        overrides={0: symbol(0) - dim_delta(n, 1)},
    )


def plan_fedosov(n: int) -> CountingPlan:
    N = 2 * n
    symbol = lambda k: binomial(N + 2, 3) * dim_sym(N, k)
    # generators are scalar Hamiltonians: the order-m fiber is S^m T*, not
    # S^m T* (x) T
    delta = lambda m: binomial(N + m - 1, m)
    overrides = {1: symbol(1) - delta(2) - delta(4) + (1 if n == 1 else 0)}
    if n == 1:
        overrides[2] = symbol(2) - delta(5) - 1
    return CountingPlan(
        base_dim=N, order=3, symbol_dim=symbol, overrides=overrides, delta_dim=delta
    )


def plan_projective_connections(n: int) -> CountingPlan:
    rank = (n - 1) * n * (n + 2) // 2
    symbol = lambda k: rank * dim_sym(n, k)
    if n == 2:
        # locally free only from the 3-jet level; all lower rows vanish
        return CountingPlan(
            base_dim=n,
            order=2,
            symbol_dim=symbol,
            overrides={0: 0, 1: 0, 2: 0, 3: 0},
        )
    return CountingPlan(
        base_dim=n,
        order=2,
        symbol_dim=symbol,
        # the order-2 prolongation of the projective chain (dim n) persists
        # through jet levels 0 and 1 and resolves at level 2
        stabilizer_dim=lambda k: n if k <= 1 else 0,
        overrides={1: symbol(1) - dim_delta(n, 1) - dim_delta(n, 3)},
    )


def plan_weyl(n: int) -> CountingPlan:
    conf = binomial(n + 1, 2) - 1  # conformal-class symbol rank

    def symbol(k: int) -> int:
        # staggered: (k+1)-jet of the conformal metric, k-jet of the potential
        return conf * binomial(n + k, k + 1) + n * dim_sym(n, k)

    co_dim = binomial(n, 2) + 1
    overrides = {
        1: conf * dim_sym(n, 2)
        + n * n
        - dim_delta(n, 3)
        - co_dim
        + (1 if n == 2 else 0)
    }
    if n == 2:
        overrides[2] = symbol(2) - dim_delta(n, 4) - 1
    return CountingPlan(base_dim=n, order=2, symbol_dim=symbol, overrides=overrides)


def plan_einstein_weyl(n: int) -> CountingPlan:
    conf = binomial(n + 1, 2) - 1

    def equations(m: int) -> int:
        # prolonged equation count r_m = (C(n+1,2)-1) * dim S^m T*
        return conf * dim_sym(n, m) if m >= 0 else 0

    def symbol(k: int) -> int:
        return conf * binomial(n + k, k + 1) + n * dim_sym(n, k) - equations(k - 1)

    co_dim = binomial(n, 2) + 1
    overrides = {
        1: conf * dim_sym(n, 2)
        + n * n
        - dim_delta(n, 3)
        - co_dim
        - equations(0)
        + (1 if n == 3 else 0)
    }
    if n == 3:
        overrides[2] = symbol(2) - dim_delta(n, 4) - 1
    return CountingPlan(base_dim=n, order=2, symbol_dim=symbol, overrides=overrides)


def plan_einstein(n: int) -> CountingPlan:
    s2 = binomial(n + 1, 2)

    def symbol(k: int) -> int:
        if k == 0:
            return s2
        if k == 1:
            return n * s2
        # trace-free Ricci equation symbol: the alternating sum of the terms
        # of its acyclic resolution, with one extra dimension at order 2 for
        # the scalar summand
        base = dim_sym(n, k) * s2 - dim_sym(n, k - 2) * s2 + dim_sym(n, k - 3) * n
        return base + (1 if k == 2 else 0)

    return CountingPlan(
        base_dim=n,
        order=1,
        symbol_dim=symbol,
        stabilizer_dim=lambda k: binomial(n, 2) if k <= 1 else 0,
    )


def plan_almost_complex(n: int) -> CountingPlan:
    N = 2 * n
    symbol = lambda k: 2 * n * n * dim_sym(N, k)

    def stabilizer(k: int) -> int:
        # real dim of the order-(k+1) prolongation of complex gl(n), which
        # has infinite type
        st = 2 * n * binomial(n + k, k + 1)
        if n == 2:  # plus 0, 4, 2, 2, 2, ...
            st += 0 if k == 0 else 4 if k == 1 else 2
        elif n == 3 and k == 1:
            st += 2
        return st

    return CountingPlan(
        base_dim=N, order=1, symbol_dim=symbol, stabilizer_dim=stabilizer
    )


#: plan builder and the parameter range over which the rederivation is
#: checked; the range's start is the least n the plan serves
SHIPPED_PLANS: dict[str, tuple[Callable[[int], CountingPlan], range]] = {
    "linear-connections": (plan_linear_connections, range(2, 7)),
    "symmetric-connections": (plan_symmetric_connections, range(2, 7)),
    "metric-connections": (plan_metric_connections, range(2, 7)),
    "fedosov": (plan_fedosov, range(1, 5)),
    "projective-connections": (plan_projective_connections, range(2, 7)),
    "weyl": (plan_weyl, range(2, 7)),
    "einstein-weyl": (plan_einstein_weyl, range(3, 7)),
    "einstein": (plan_einstein, range(4, 7)),
    "almost-complex": (plan_almost_complex, range(2, 6)),
}


def shipped_plan(structure_id: str, n: int) -> CountingPlan:
    """The plan for `structure_id` at parameter n, which must be at least
    the start of the plan's range in SHIPPED_PLANS and at most MAX_N."""
    if structure_id not in SHIPPED_PLANS:
        raise UnknownSymbol(
            f"no shipped plan for {structure_id!r}; known: {sorted(SHIPPED_PLANS)}"
        )
    builder, valid = SHIPPED_PLANS[structure_id]
    if n < valid.start:
        raise UnsupportedArgument(f"the {structure_id} plan needs n >= {valid.start}")
    if n > MAX_N:
        raise UnsupportedArgument(f"the {structure_id} plan: n is above the limit {MAX_N}")
    return builder(n)
