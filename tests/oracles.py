"""Independent oracles used by the test suite.

These deliberately avoid the package's own code paths: truncated Cauchy
products instead of the series recurrence, direct closed-form orbit
matrices instead of the prolongation recursion, plain comb() counting
instead of the dimension helpers.
"""

import math
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb


def truncated_product_series(factors, order):
    """Coefficients 0..order of a product of coefficient lists (Cauchy products)."""
    acc = [Fraction(1)] + [Fraction(0)] * order
    for coeffs in factors:
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(acc):
            if a == 0:
                continue
            for j, b in enumerate(coeffs):
                if i + j > order:
                    break
                out[i + j] += a * Fraction(b)
        acc = out
    return acc


def geometric_series_power(n, order):
    """Coefficients of 1/(1-z)^n by multiplying out n copies of 1+z+z^2+..."""
    ones = [1] * (order + 1)
    return truncated_product_series([ones] * n, order)


def count_monomials(n_vars, degree):
    """Number of monomials of exact total degree in n_vars variables, by enumeration."""
    if n_vars == 1:
        return 1
    count = 0
    for exps in product(range(degree + 1), repeat=n_vars):
        if sum(exps) == degree:
            count += 1
    return count


def rational_rank(rows):
    """Plain fraction Gaussian elimination (dense, pivoting by column), for cross-checking."""
    rows = [list(map(Fraction, r)) for r in rows if any(x != 0 for x in r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / lead[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], lead)]
        rank += 1
    return rank


# -- the row forms by truncated substitution -----------------------------------
#
# ProlongPlan's build before it expanded each generator term directly: the
# Taylor section as Polys, one truncated substitution per component, and
# each Q_alpha formed by truncated_mul and poly_diff, its monomials looked
# up in a table of (x^rho, token) slices.  The plan is compared with it.
# The polynomial derivative, truncated product and truncated substitution
# are this oracle's own: the package's Poly has none of them.


def poly_diff(poly, var):
    """The derivative of a Poly along variable `var`."""
    from poincount.jetpoly import Poly

    out = {}
    for mono, coeff in poly.terms.items():
        for idx, (v, e) in enumerate(mono):
            if v == var:
                new = mono[:idx] + (((v, e - 1),) if e > 1 else ()) + mono[idx + 1 :]
                _add_term(out, new, coeff * e)
                break
    return Poly(out)


def _add_term(out, mono, coeff):
    """out[mono] += coeff, dropping the monomial when the sum is zero, so a
    monomial that cancels and comes back goes last, as in Poly's sums."""
    acc = out.get(mono, 0) + coeff
    if acc:
        out[mono] = acc
    else:
        out.pop(mono, None)


def _base_degree(mono, base):
    return sum(e for v, e in mono if v < base)


def truncated_mul(left, right, base, degree):
    """left * right without the monomials whose degree in the variables
    below `base` exceeds `degree`."""
    from poincount.jetpoly import Poly, _mul_monomials

    out = {}
    for m1, c1 in left.terms.items():
        room = degree - _base_degree(m1, base)
        for m2, c2 in right.terms.items():
            if _base_degree(m2, base) <= room:
                _add_term(out, _mul_monomials(m1, m2), c1 * c2)
    return Poly(out)


def substitute(poly, values, base, degree):
    """Replace the given variables of a Poly by Polys, keeping the rest, up
    to degree `degree` in the variables below `base`.

    Exponents are nonnegative, so no product lowers that degree: each
    multiplication drops the monomials above it, and the result is the
    full substitution with exactly those monomials removed.
    """
    from poincount.jetpoly import Poly

    powers = {var: [Poly.constant(1)] for var in values}
    out = Poly.zero()
    for mono, coeff in poly.terms.items():
        kept = tuple((v, e) for v, e in mono if v not in values)
        if _base_degree(kept, base) > degree:
            continue
        term = Poly({kept: coeff})
        for var, exp in mono:
            if var in values:
                cached = powers[var]
                while len(cached) <= exp:
                    cached.append(truncated_mul(cached[-1], values[var], base, degree))
                term = truncated_mul(term, cached[exp], base, degree)
        out = out + term
    return out


def substitution_plan(space, xi, phi, specs):
    """(denominator, degree, monomials, forms) of the ProlongPlan of the
    components xi, phi (Polys) and the slot specs on a JetSpace, built by
    the truncated substitution of the Taylor section."""
    from math import factorial, lcm

    from poincount.jetpoly import Poly, _mul_monomials

    p, q, k = space.p, space.q, space.order
    fiber = lambda mono: sum(e for var, e in mono if p <= var < p + q)
    specs = tuple(specs)
    denominator = lcm(
        *[c.denominator for comp in (*xi, *phi) for c in comp.terms.values()]
    )
    degree = max(
        [1]
        + [fiber(mono) + 1 for comp in xi for mono in comp.terms]
        + [fiber(mono) for comp in phi for mono in comp.terms]
    )
    # the jet on column col is the variable offset + col, after every token
    offset = 1 + max([p + q] + [mono[-1][0] for comp in (*xi, *phi) for mono in comp.terms])
    k_factorial = factorial(k)
    # per multi-index sigma: x^sigma as a monomial in the base variables
    x_powers = [tuple((i, e) for i, e in enumerate(sigma) if e) for sigma in space.multi_indices]
    # (index of rho, index of rho + shift) for every rho with |rho + shift| <= k
    pairs = lambda shift: (
        space.plus(space.multi_indices.index(shift)).items() if sum(shift) <= k else ()
    )
    section = {
        cols[0]: Poly({
            mono + ((offset + col, 1),): k_factorial // f
            for mono, col, f in zip(x_powers, cols, space._factorials)
        })
        for cols in space.columns
    }
    integral = [substitute(comp * denominator, section, p, k) for comp in (*xi, *phi)]
    # per x^rho * token: [(slot, sigma, c sigma!)], sigma an index into
    # space.multi_indices
    slices = {}
    for slot, spec in enumerate(specs):
        for var, c, shift in spec:
            for rho, sigma in pairs(shift):
                key = x_powers[rho] + ((var, 1),)
                slices.setdefault(key, []).append((slot, sigma, c * space._factorials[sigma]))

    def split(mono):
        """(slices of x^rho * token, jets) of x^rho * token * jets."""
        n = 0
        while mono[n][0] < p:
            n += 1
        return slices.get(mono[: n + 1], ()), mono[n + 1 :]

    # per slot: {(column, jet monomial in the jet variables): int}
    sums = [{} for _ in specs]
    for i, xi_i in enumerate(integral[:p]):
        shifted = pairs(tuple(int(i == b) for b in range(p)))
        for mono, coeff in xi_i.terms.items():
            if mono[0][0] < p:
                continue  # only xi_i(0) is read
            at, jet = split(mono)
            # xi_i(0) acts through the token's unshifted slices (sigma =
            # rho = 0): on base column i times D, and on each u^alpha_rho
            # times k! y_{rho + e_i}
            for slot, sigma, c in at:
                if sigma:
                    continue
                value, acc = c * coeff, sums[slot]
                acc[i, jet] = acc.get((i, jet), 0) + value
                for cols in space.columns:
                    for rho, up in shifted:
                        key = cols[rho], _mul_monomials(jet, ((offset + cols[up], 1),))
                        acc[key] = acc.get(key, 0) + value * k_factorial
    for alpha, cols in enumerate(space.columns):
        q_alpha = integral[p + alpha]
        u = section[cols[0]]
        for i in range(p):
            q_alpha = q_alpha - truncated_mul(integral[i], poly_diff(u, i), p, k)
        for mono, coeff in q_alpha.terms.items():
            at, jet = split(mono)
            for slot, sigma, multiplier in at:
                acc, key = sums[slot], (cols[sigma], jet)
                acc[key] = acc.get(key, 0) + multiplier * coeff
    index = {}  # jet monomial: its index in monomials
    forms = []
    for slot, acc in enumerate(sums):
        form = [
            (col, index.setdefault(jet, len(index)), c) for (col, jet), c in acc.items() if c
        ]
        if form:
            cols = {col for col, _, _ in form}
            forms.append((slot, *zip(*form), len(cols) == len(form)))
    monomials = tuple(
        tuple(var - offset for var, e in jet for _ in range(e)) for jet in index
    )
    return denominator, degree, monomials, tuple(forms)


# -- closed-form orbit matrix for the x-reparametrization pseudogroup --------
#
# Component of the prolonged generator family f(x,y) d/dx on the jet
# coordinate u_sigma, at a point over the base origin:
#
#     -sum_{0 < gamma <= sigma} C(sigma, gamma) f_gamma u_{sigma-gamma+e_x}
#
# (the gamma = 0 transport term cancels on finite jets).  Rows are the
# Taylor coefficients f_gamma plus d/dx, d/dy, d/du.

SIGMA_CHAIN = [(1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (1, 2)]


def xreparam_closed_form_s(k_max, equalities, inequations, rng):
    """s_0..s_{k_max} for one stratum, straight from the closed form."""
    sigmas = [
        (i, m - i) for m in range(k_max + 1) for i in range(m, -1, -1)
    ]
    eq = set(equalities)
    vals = {}
    for s in sigmas:
        if s in eq:
            vals[s] = Fraction(0)
        else:
            num = rng.randint(-20, 20)
            if s in set(inequations):
                while num == 0:
                    num = rng.randint(-20, 20)
            vals[s] = Fraction(num, rng.randint(1, 20))
    out = []
    for k in range(k_max + 1):
        cols = [s for s in sigmas if s[0] + s[1] <= k]
        rows = [
            [Fraction(1 if c == (0, 0) else 0) for c in cols] + [0, 0],  # d/du
            [Fraction(0) for _ in cols] + [1, 0],  # d/dy
            [Fraction(0) for _ in cols] + [0, 1],  # d/dx (translation)
        ]
        gammas = [
            (a, m - a) for m in range(1, k + 2) for a in range(m, -1, -1)
        ]
        for g in gammas:
            row = []
            for s in cols:
                acc = Fraction(0)
                if g[0] <= s[0] and g[1] <= s[1]:
                    tgt = (s[0] - g[0] + 1, s[1] - g[1])
                    if tgt[0] + tgt[1] <= k:
                        acc -= comb(s[0], g[0]) * comb(s[1], g[1]) * vals[tgt]
                row.append(acc)
            rows.append(row + [0, 0])
        rank = rational_rank(rows)
        dim_stratum = 2 + len(cols) - sum(1 for e in eq if e[0] + e[1] <= k)
        out.append(dim_stratum - rank)
    return out


def xreparam_stratum_oracle(index, k_max, seed):
    """(s, h) of the stratum Sigma_index \\ Sigma_{index+1} from the closed form."""
    import random

    equalities = SIGMA_CHAIN[:index]
    inequations = SIGMA_CHAIN[index : index + 1]
    rng = random.Random(seed)
    best = None
    for _ in range(3):
        s = xreparam_closed_form_s(k_max, equalities, inequations, rng)
        best = s if best is None else [max(a, b) for a, b in zip(best, s)]
    h = [best[0]] + [best[k] - best[k - 1] for k in range(1, k_max + 1)]
    return best, h


# -- jet coordinate names ------------------------------------------------------
#
# The eager name table: every coordinate of J^9 named up front, in column
# order, refusing the first name two coordinates share.  The engine names
# only its own columns and decodes a name on its own (JetSpace._jet_index),
# and Scenario refuses clashes from the base and fiber names alone; this
# table is the reference both are compared with.


@cache
def coordinates(base: tuple[str, ...], fiber: tuple[str, ...]) -> dict[str, tuple]:
    """{name: ("base", i) | ("jet", alpha, sigma)} for every coordinate of
    J^_MAX_ORDER, in JetSpace's variable order, each jet named by _jet_name;
    two coordinates that would share a name raise a ValueError naming both."""
    from poincount.jetflow import _MAX_ORDER, _jet_name, _multi_indices

    named = [(name, ("base", i)) for i, name in enumerate(base)] + [
        (_jet_name(fiber[alpha], sigma), ("jet", alpha, sigma))
        for m in range(_MAX_ORDER + 1)
        for alpha in range(len(fiber))
        for sigma in _multi_indices(len(base), m)
    ]
    describe = lambda kind, i, sigma=(): (
        f"base {base[i]!r}" if kind == "base"
        else f"the jet {sigma} of fiber {fiber[i]!r}" if any(sigma)
        else f"fiber {fiber[i]!r}"
    )
    table: dict[str, tuple] = {}
    for name, coordinate in named:
        if table.setdefault(name, coordinate) is not coordinate:
            raise ValueError(
                f"{describe(*table[name])} and {describe(*coordinate)} are both named {name!r}"
            )
    return table


# -- symbolic prolongation oracle ----------------------------------------------
#
# The textbook route, independent of the engine's section evaluation: put a
# concrete polynomial for each free function (a Taylor monomial x^beta), prolong
# the resulting field symbolically by the recursion
#
#     phi^sigma = D_i phi^tau - sum_j u_{tau + e_j} D_i xi_j    (sigma = tau + e_i)
#
# on plain jet polynomials, and evaluate it at the point.


def jet_columns(space):
    """{column: (alpha, sigma)} for every jet column of a JetSpace in column
    order, read off its `columns` and `multi_indices`; the base columns
    0..p-1 are absent."""
    return dict(sorted(
        (col, (alpha, sigma))
        for alpha, cols in enumerate(space.columns)
        for col, sigma in zip(cols, space.multi_indices)
    ))


def total_derivative(space, poly, direction):
    """D_i = d/dx_i + sum u^alpha_{sigma+e_i} d/du^alpha_sigma on jet polynomials."""
    from poincount.jetpoly import Poly

    out = poly_diff(poly, direction)
    jets = jet_columns(space)
    for var in poly.variables():
        if var not in jets:
            continue
        alpha, sigma = jets[var]
        up = sigma[:direction] + (sigma[direction] + 1,) + sigma[direction + 1 :]
        out = out + Poly.variable(space.jet_var(alpha, up)) * poly_diff(poly, var)
    return out


def _concrete_component(scenario, space, text, functions):
    """A generator component with free function f replaced by functions[f]
    (a Poly in the base variables; absent functions are zero)."""
    from poincount.exprs import evaluate_node, parse_expression
    from poincount.jetpoly import Poly

    def resolve(name):
        if name in scenario.base:
            return Poly.variable(scenario.base.index(name))
        if name in scenario.fiber:
            zero = (0,) * scenario.p
            return Poly.variable(space.jet_var(scenario.fiber.index(name), zero))
        fname, _, suffix = name.partition("_")
        if fname not in scenario.free_functions:
            raise KeyError(name)
        poly = functions.get(fname, Poly.zero())
        for ch in suffix:
            poly = poly_diff(poly, scenario.base.index(ch))
        return poly

    return evaluate_node(parse_expression(text), Poly.constant, resolve)


def evaluate(poly, values):
    """The value of a jet polynomial at {variable: value}, term by term."""
    total = 0
    for mono, coeff in poly.terms.items():
        term = coeff
        for var, exp in mono:
            term *= values[var] ** exp
        total += term
    return total


def _prolonged_field(space, xi, phi):
    """The prolonged field (xi, phi) as one polynomial per coordinate."""
    from poincount.jetpoly import Poly

    p = space.p
    components = {(alpha, (0,) * p): phi[alpha] for alpha in range(space.q)}
    dxi = [[total_derivative(space, xi[j], i) for j in range(p)] for i in range(p)]
    jets = jet_columns(space)
    for m in range(1, space.order + 1):
        for var in range(space.dim):
            if var not in jets or sum(jets[var][1]) != m:
                continue
            alpha, sigma = jets[var]
            i = next(idx for idx, s in enumerate(sigma) if s > 0)
            tau = sigma[:i] + (sigma[i] - 1,) + sigma[i + 1 :]
            comp = total_derivative(space, components[(alpha, tau)], i)
            for j in range(p):
                up = tau[:j] + (tau[j] + 1,) + tau[j + 1 :]
                comp = comp - Poly.variable(space.jet_var(alpha, up)) * dxi[i][j]
            components[(alpha, sigma)] = comp
    field = []
    for var in range(space.dim):
        field.append(components[jets[var]] if var in jets else xi[var])
    return field


def derivative_orders(scenario, gen):
    """{f: r_f} for the free functions a generator names, read off its
    text: r_f is the longest derivative suffix among f's tokens f, f_x,
    f_xy, ... (0 for a bare f)."""
    from poincount.exprs import symbol_names

    orders = {}
    for text in [*gen["xi"], *gen["phi"]]:
        for name in symbol_names(text):
            fname, _, suffix = name.partition("_")
            if fname in scenario.free_functions:
                orders[fname] = max(orders.get(fname, 0), len(suffix))
    return orders


def acting_parameter_count(scenario, k):
    """N_k, the parameters that act on J^k, in closed form: C(p + k + r_f,
    p) for each free function f a generator names (r_f read off its
    text by derivative_orders), plus one per generator whose
    function-free part, with every free function set to zero, is nonzero."""
    space = scenario.space(0)
    count = 0
    for gen in scenario.generators:
        fixed = [
            _concrete_component(scenario, space, text, {})
            for text in [*gen["xi"], *gen["phi"]]
        ]
        count += any(fixed) + sum(
            comb(scenario.p + k + r, scenario.p)
            for r in derivative_orders(scenario, gen).values()
        )
    return count


def prolonged_fields_oracle(scenario, k):
    """The prolonged fields of J^k, one polynomial per coordinate each: for
    each generator its function-free part, and the difference made by
    setting one free function it names to x^beta, the others to zero.  The
    order-k fields read the jets of f up to order k + r_f
    (derivative_orders), so an x^beta with |beta| > k + r_f gives a zero
    field; the betas run one degree past that."""
    from poincount.jetpoly import Poly

    space = scenario.space(k)
    fields = []
    for gen in scenario.generators:

        def field(functions):
            return (
                [_concrete_component(scenario, space, t, functions) for t in gen["xi"]],
                [_concrete_component(scenario, space, t, functions) for t in gen["phi"]],
            )

        xi0, phi0 = field({})
        slices = [(xi0, phi0)]
        for fname, order in derivative_orders(scenario, gen).items():
            monomials = [
                beta
                for total in range(k + order + 2)
                for beta in product(range(total + 1), repeat=scenario.p)
                if sum(beta) == total
            ]
            for beta in monomials:
                exps = tuple((i, e) for i, e in enumerate(beta) if e)
                x_beta = Poly({exps: Fraction(1)})
                xi, phi = field({fname: x_beta})
                slices.append(
                    ([a - b for a, b in zip(xi, xi0)], [a - b for a, b in zip(phi, phi0)])
                )
        fields += [_prolonged_field(space, xi, phi) for xi, phi in slices]
    return fields


def rows_at(fields, point):
    """The nonzero rows of the fields at a jet point {variable: value}."""
    rows = [[evaluate(poly, point) for poly in field] for field in fields]
    return [row for row in rows if any(row)]


def prolonged_rows_oracle(scenario, k, point):
    """Nonzero tangent rows at a jet point: prolonged_fields_oracle at it."""
    return rows_at(prolonged_fields_oracle(scenario, k), point)


def three_point_ranks(engine, stratum, seed):
    """The rank profile of a _StratumEngine on a stratum as sampled_ranks
    found it before it read the acting counts: each round draws three
    seeded stratum points and ranks each at every order, and the three
    must agree (one retry round, then GenericityFailure)."""
    import random

    from poincount import jetflow
    from poincount.jetpoly import rank_profile

    rng = random.Random(seed)
    for _ in range(2):
        trials = []
        for _ in range(3):
            point = jetflow.sample_stratum_point(engine.space, stratum, rng, engine.scenario.positivity)
            rows = jetflow.prolong(engine.plan, point)[1].values()
            trials.append(rank_profile(rows, engine.cols_at))
        if all(t == trials[0] for t in trials):
            return trials[0]
    raise jetflow.GenericityFailure(f"ranks inconsistent across samples for {stratum.label!r}")


# -- the tail polynomial in the binomial basis ----------------------------------
#
# A HilbertSpec takes its tail by integer values; these build the reference
# tail as a Fraction polynomial from binomials C(k + shift, r), take its
# differences, and turn it into the values the spec is given.


def finite_differences(values, order):
    """Apply the forward difference operator `order` times."""
    out = list(values)
    for _ in range(order):
        out = [out[i + 1] - out[i] for i in range(len(out) - 1)]
    return out


def binom_in_k(shift, r):
    """C(k + shift, r) as a polynomial in k: prod_{i=0}^{r-1}(k + shift - i) / r!.

    For r < 0 returns the zero polynomial (empty product convention matches
    the binomial(m, k) = 0 for k < 0 rule).
    """
    from poincount.algebra import Polynomial, _div, _mul

    if r < 0:
        return Polynomial.zero()
    coeffs = [1]
    for i in range(r):
        coeffs = _mul(coeffs, [shift - i, 1])
    r_factorial = math.factorial(r)
    return Polynomial([_div(c, r_factorial) for c in coeffs])


def tail_values(tail, tail_start, extra=0):
    """The values of the tail Polynomial at k = tail_start, ...,
    tail_start + deg + extra by Polynomial.evaluate, each an int where it is
    an integer (a HilbertSpec refuses any other value)."""
    out = []
    for k in range(tail_start, tail_start + tail.degree + 1 + extra):
        value = tail.evaluate(k)
        out.append(int(value) if value.denominator == 1 else value)
    return out


# -- the rational-function core on Fraction arithmetic -------------------------
#
# The term-by-term generating-function builder, the Euclid gcd on
# schoolbook long division and the dividing series recurrence that the
# integer core replaced; the tests compare the core with them.


def fraction_divmod(a, b):
    """(quotient, remainder) of the polynomials a by b (nonzero), by
    schoolbook long division over Fraction coefficients."""
    from poincount.algebra import Polynomial

    rem = [Fraction(c) for c in a.coeffs]
    lead, db = Fraction(b.leading()), b.degree
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + db] / lead
        for j, x in enumerate(b.coeffs):
            rem[i + j] -= c * x
    return Polynomial(quot), Polynomial(rem)


def euclid_gcd(a, b):
    """Monic gcd over the rationals by Fraction Euclid; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, fraction_divmod(a, b)[1]
    return a.monic()


def fraction_series(num, den, order):
    """Coefficients 0..order of num/den (coefficient lists, den[0] != 0) from
    den * series = num, dividing by den[0] at every step."""
    out = []
    for k in range(order + 1):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def gf_from_hilbert_termwise(spec):
    """sum_k h(k) z^k as the polynomial of the values below the tail onset k0
    plus, for each binomial-basis coefficient d_j of the tail at k0,
    d_j z^(k0+j) / (1-z)^(j+1) = sum_{k >= k0} d_j C(k - k0, j) z^k, each sum
    reduced before the next term is added."""
    from poincount.algebra import ONE_MINUS_Z, Polynomial, RationalFunction

    result = RationalFunction(
        Polynomial([spec.exceptions.get(k, 0) for k in range(spec.tail_start)])
    )
    tail = spec.tail
    if tail.is_zero():
        return result
    k0 = spec.tail_start
    samples = [tail.evaluate(k0 + i) for i in range(tail.degree + 1)]
    for j in range(tail.degree + 1):
        d_j = finite_differences(samples, j)[0]
        if d_j != 0:
            result = result + RationalFunction(
                Polynomial.monomial(k0 + j, d_j), ONE_MINUS_Z ** (j + 1)
            )
            result.num  # reading the value reduces it
    return result


# -- the constant-tail fit -------------------------------------------------------
#
# The rule the strata table used before hilbert_values_spec took a
# confirmation count: a constant tail is read off three equal trailing values.


def fit_constant_tail(h):
    """Eventually-constant spec of a row whose last three values are equal
    (ValueError otherwise): the tail starts where the trailing run of the
    last value does, and every earlier nonzero value is an exception."""
    from poincount.hilbert import HilbertSpec

    if len(h) < 3 or not (h[-1] == h[-2] == h[-3]):
        raise ValueError(f"no constant tail visible in {list(h)}")
    onset = len(h) - 1
    while onset > 0 and h[onset - 1] == h[-1]:
        onset -= 1
    return HilbertSpec({k: h[k] for k in range(onset) if h[k] != 0}, onset, [h[-1]])


# -- the parse and the pole split on Fraction arithmetic -------------------------
#
# The evaluator that built a reduced RationalFunction at every AST node, and
# the divmod loop that split off a factor one Fraction division at a time;
# the integer parse and split are compared with them.


class _NodeReduced:
    """A RationalFunction whose value is reduced after every operation."""

    def __init__(self, f):
        f.num  # reading the value reduces it
        self.f = f

    def __neg__(self):
        return _NodeReduced(-self.f)

    def __add__(self, other):
        return _NodeReduced(self.f + other.f)

    def __sub__(self, other):
        return _NodeReduced(self.f - other.f)

    def __mul__(self, other):
        return _NodeReduced(self.f * other.f)

    def __truediv__(self, other):
        return _NodeReduced(self.f / other.f)

    def __pow__(self, exponent):
        return _NodeReduced(self.f**exponent)


def ratfun_parse(text):
    """parse_rational_function as a node-by-node RationalFunction evaluation
    that reduces every intermediate value, with the same errors."""
    from poincount.algebra import RationalFunction
    from poincount.exprs import ExpressionError, evaluate_node, parse_expression

    node = parse_expression(text)

    def symbol(name):
        if name == "z":
            return _NodeReduced(RationalFunction.z())
        raise ExpressionError(f"unknown symbol {name!r}; only z is allowed")

    def const(n):
        return _NodeReduced(RationalFunction.from_scalar(n))

    try:
        return evaluate_node(node, const, symbol).f
    except ZeroDivisionError as exc:
        raise ExpressionError(f"{exc} in {text!r}") from None
    except RecursionError:
        raise ExpressionError("expression is nested too deeply") from None


def divmod_split_factor(poly, factor):
    """(m, residual) with poly = factor^m * residual, by repeated Fraction
    long division (fraction_divmod); the zero polynomial gives (0, 0)."""
    if poly.is_zero():
        return 0, poly
    count = 0
    while True:
        q, r = fraction_divmod(poly, factor)
        if not r.is_zero():
            return count, poly
        poly = q
        count += 1


# -- the tail by Fraction Horner -------------------------------------------------
#
# A spec's value before the tail was kept in Newton form: every value comes
# from evaluating the tail polynomial afresh in Fraction arithmetic.


def horner_h(spec, k):
    """h(k) of a HilbertSpec with the tail evaluated by Fraction Horner at k,
    raising the spec's ValueError for a tail value that is not a nonnegative
    integer."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k in spec.exceptions:
        return spec.exceptions[k]
    if k < spec.tail_start:
        return 0
    value = Fraction(0)
    for c in reversed(spec.tail.coeffs):
        value = value * k + Fraction(c)
    if value.denominator != 1 or value < 0:
        raise ValueError(f"tail({k}) = {value} is not a nonnegative integer")
    return int(value)


def shift_down_horner(spec, m):
    """The spec of k -> h(k + m) with the tail shifted by Horner's rule,
    tail(k + m) = (...(c_d (k + m) + c_(d-1))(k + m) + ...) + c_0, on the
    tail Polynomial, which is then evaluated at the shifted tail points."""
    from poincount.algebra import Polynomial
    from poincount.hilbert import HilbertSpec

    exc = {k - m: v for k, v in spec.exceptions.items() if k >= m}
    tail, step = Polynomial.zero(), Polynomial((m, 1))
    for c in reversed(spec.tail.coeffs):
        tail = tail * step + c
    start = max(spec.tail_start - m, 0)
    return HilbertSpec(exc, start, tail_values(tail, start))


# -- the power by binary squaring ------------------------------------------------
#
# Polynomial ** before every power took the Miller recurrence: square and
# multiply on Fraction coefficient lists, with its own convolution.


def square_and_multiply(coeffs, e):
    """Coefficients of p^e (e >= 0) for the coefficient list p, lowest degree
    first and without trailing zeros, by binary squaring over Fractions."""

    def convolve(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    result, base = [Fraction(1)], [Fraction(c) for c in coeffs]
    while e:
        if e & 1:
            result = convolve(result, base)
        base = convolve(base, base)
        e >>= 1
    while result and result[-1] == 0:
        result.pop()
    return result


# -- the cyclotomic scan over every index ----------------------------------------
#
# cyclotomic_factors before the self-reciprocal bound: every index m >= 2
# whose cyclotomic degree fits in what is left of the polynomial, up to
# 2*deg^2 + 2.


def scan_cyclotomic_factors(poly):
    """(m, Phi_m, multiplicity) for the cyclotomic factors Phi_m, m >= 2, of
    poly, trying every m whose totient (counted by gcd) is at most the degree
    still undivided."""
    from math import gcd

    from poincount.algebra import cyclotomic, split_factor

    out = []
    remaining = poly
    for m in range(2, 2 * poly.degree * poly.degree + 3):
        if remaining.degree < 1:
            break
        if sum(1 for k in range(1, m + 1) if gcd(k, m) == 1) > remaining.degree:
            continue
        phi = cyclotomic(m)
        mult, remaining = split_factor(remaining, phi)
        if mult > 0:
            out.append((m, phi, mult))
    return out
