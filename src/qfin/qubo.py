"""QUBO containers, penalty folding, Ising conversion, and problem builders.

Minimization convention everywhere: maximization problems are negated at
build time. Variable i of a bitstring corresponds to qubit i, i.e. bit i of
the basis index.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import inputs
from .simulator import MAX_QUBITS, CapacityError, IsingObservable


@dataclass(frozen=True)
class Qubo:
    """energy(x) = linear . x + x^T quadratic x + constant over binary x."""

    n: int
    quadratic: np.ndarray
    linear: np.ndarray
    constant: float = 0.0

    def __post_init__(self):
        q = np.asarray(self.quadratic, dtype=float)
        c = np.asarray(self.linear, dtype=float)
        if q.shape != (self.n, self.n):
            raise ValueError("quadratic must be n by n")
        if c.shape != (self.n,):
            raise ValueError("linear must have length n")
        for name, values in (("quadratic", q), ("linear", c), ("constant", self.constant)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        if np.max(np.abs(q - q.T), initial=0.0) > 1e-12:
            raise ValueError("quadratic matrix must be symmetric")
        object.__setattr__(self, "quadratic", q)
        object.__setattr__(self, "linear", c)


def energy(qubo: Qubo, bits) -> float:
    bits = np.asarray(bits, dtype=float)
    if bits.shape != (qubo.n,):
        raise ValueError(f"bitstring length {bits.size} does not match n={qubo.n}")
    return float(qubo.linear @ bits + bits @ qubo.quadratic @ bits + qubo.constant)


def subset_sums(columns: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Entry k of the last axis sums the columns in bit mask k, from 0.0 in ascending order.

    ``columns`` holds one column per entry of its last axis. The table
    doubles: the masks with top bit j are those below 2^j plus column j.
    ``out`` may be given, such as a view of a larger table, to fill in place.
    """
    if out is None:
        out = np.empty(columns.shape[:-1] + (1 << columns.shape[-1],))
    out[..., 0] = 0.0
    for j in range(columns.shape[-1]):
        np.add(out[..., :1 << j], columns[..., j:j + 1], out=out[..., 1 << j:2 << j])
    return out


def subset_sum_blocks(columns: np.ndarray, table_bits: int = 16):
    """``(start, sums)`` for the masks in blocks of 2^table_bits, each as ``subset_sums``'.

    The subsets of the first ``table_bits`` columns form one table, and each
    later block adds its set columns from there on to a copy of that table
    in ascending order, so every mask sums its columns in ``subset_sums``'
    order while only a few tables of 2^table_bits masks exist. The first
    block's ``sums`` is the table itself, so it is read-only.
    """
    n = columns.shape[-1]
    low = min(n, table_bits)
    table = subset_sums(columns[..., :low])
    yield 0, table
    for high in range(1, 1 << (n - low)):
        sums = table.copy()
        for j in range(low, n):
            if high >> (j - low) & 1:
                sums += columns[..., j:j + 1]
        yield high << low, sums


class QuadraticEnumeration:
    """x' Q x of all 2^n assignments for one fixed Q, enumerated once.

    The table doubles: a state with top bit j has x'Qx equal to
    ``(S_j + t) + Q[j, j]``, where t is the table entry of its lower bits
    and S_j the subset sum (``subset_sums``) of its cross terms
    ``Q[j, k] + Q[k, j]`` over the lower set bits k. S_j is built in place
    where the states with top bit j go, so building the table takes no
    other 2^n vector. Leading axes of ``quadratic`` (a form per record)
    lead the table and ``energies``' ``linear`` and ``constant`` too.

    ``energies(linear, constant)`` then writes the subset sums of ``linear``
    (``subset_sums``, all 2^n of them) into its output and adds x'Qx and the
    constant there, so a solver whose QUBOs share Q and differ only in those
    two gets ``all_energies``' energies bit for bit (IEEE addition commutes)
    without redoing the quadratic form. It holds x'Qx alone; a caller that
    solves many passes one held ``out``, since a fresh 2^n vector per call
    is paged in again, which at 16 variables costs more than the energies.
    """

    def __init__(self, quadratic: np.ndarray):
        n = quadratic.shape[-1]
        if n > MAX_QUBITS:
            raise CapacityError(f"energy table of {n} qubits, ceiling {MAX_QUBITS}")
        self.n = n
        cross = quadratic + np.swapaxes(quadratic, -1, -2)
        self.quad = np.empty(quadratic.shape[:-2] + (1 << n,))
        self.quad[..., 0] = 0.0
        for j in range(n):
            top = subset_sums(cross[..., j, :j], out=self.quad[..., 1 << j:2 << j])
            top += self.quad[..., :1 << j]
            top += quadratic[..., j, j, None]

    def energies(self, linear: np.ndarray, constant: float = 0.0,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Energies indexed by basis index (bit i = x_i); ``out`` must not be ``self.quad``."""
        out = subset_sums(linear, out=out)
        out += self.quad
        out += constant
        return out


@np.errstate(over="ignore", invalid="ignore")  # overflows reach the finite checks, not stderr
def all_energies(qubo: Qubo) -> np.ndarray:
    """Energies of all 2^n assignments, indexed by basis index (bit i = x_i)."""
    form = QuadraticEnumeration(qubo.quadratic)
    # one-shot: add the linear sums to x'Qx in place, 2^16 states at a time,
    # so only one 2^n vector exists
    for start, sums in subset_sum_blocks(qubo.linear):
        part = form.quad[start:start + sums.size]
        part += sums
        part += qubo.constant
    return form.quad


def bits_of_index(index: int, n: int) -> np.ndarray:
    return (index >> np.arange(n)) & 1


def lowest_energy(energies: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Minimizer over an n-variable energy table; ties break to the lowest basis index,
    and a non-finite minimum (an overflowed or NaN entry) raises ``ValueError``."""
    best = int(np.argmin(energies))
    value = float(energies[best])
    if not math.isfinite(value):
        raise ValueError(f"lowest energy {value} is not finite")
    return bits_of_index(best, n), value


def brute_force(qubo: Qubo) -> tuple[np.ndarray, float]:
    """Global minimizer; ties break to the lowest basis index."""
    return lowest_energy(all_energies(qubo), qubo.n)


def fold_equality(qubo: Qubo, a, b, weight: float) -> Qubo:
    """Add weight * ||a x - b||^2 for the rows of a x = b to the quadratic, linear and constant."""
    if weight <= 0.0:
        raise ValueError("penalty weight must be positive")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape[0] != b.shape[0]:
        raise ValueError("row count of a must equal length of b")
    if a.shape[1] != qubo.n:
        raise ValueError("constraint width does not match variable count")
    return Qubo(
        n=qubo.n,
        quadratic=qubo.quadratic + weight * (a.T @ a),
        linear=qubo.linear - 2.0 * weight * (a.T @ b),
        constant=qubo.constant + weight * float(b @ b),
    )


def to_ising(qubo: Qubo) -> IsingObservable:
    """Spin image under x = (1 - s)/2 with s the Z eigenvalue of the qubit.

    The resulting observable's energy on every basis state equals the QUBO
    energy of the corresponding bitstring exactly.
    """
    n = qubo.n
    offset = qubo.constant
    h_lin = np.zeros(n)
    j_quad: dict[tuple[int, int], float] = {}
    for i in range(n):
        c = qubo.linear[i]
        if c != 0.0:
            offset += 0.5 * c
            h_lin[i] -= 0.5 * c
    for i in range(n):
        for j in range(n):
            q = qubo.quadratic[i, j]
            if q == 0.0:
                continue
            offset += 0.25 * q
            h_lin[i] -= 0.25 * q
            h_lin[j] -= 0.25 * q
            if i == j:
                offset += 0.25 * q
            else:
                key = (min(i, j), max(i, j))
                j_quad[key] = j_quad.get(key, 0.0) + 0.25 * q
    terms: list[tuple[tuple[int, ...], float]] = []
    terms.extend(((i,), float(h_lin[i])) for i in range(n) if h_lin[i] != 0.0)
    terms.extend((pair, coeff) for pair, coeff in sorted(j_quad.items()) if coeff != 0.0)
    return IsingObservable(terms=tuple(terms), offset=float(offset))


def _auto_penalty(quadratic: np.ndarray, linear: np.ndarray) -> float:
    """Default penalty weight: twice the unpenalized coefficient l1 mass."""
    mass = float(np.abs(quadratic).sum() + np.abs(linear).sum())
    return 2.0 * mass if mass > 0.0 else 1.0


def _check_penalty(penalty: float | None) -> None:
    if penalty is not None and not 0.0 < penalty < math.inf:
        raise ValueError("penalty must be finite and positive")


def _check_risk_aversion(q: float) -> None:
    if not 0.0 < q < math.inf:
        raise ValueError("risk aversion q must be finite and positive")


@dataclass(frozen=True)
class PortfolioSpec:
    """Mean-variance selection: min q x' Sigma x - mu' x subject to 1' x = B."""

    mu: np.ndarray
    sigma: np.ndarray
    q: float
    budget: int
    penalty: float | None = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        n = mu.size
        if sigma.shape != (n, n):
            raise ValueError("sigma must be square and match mu")
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise ValueError("mu and sigma must be finite")
        if np.max(np.abs(sigma - sigma.T), initial=0.0) > 1e-9:
            raise ValueError("sigma must be symmetric")
        if np.linalg.eigvalsh(sigma).min() < -1e-8:
            raise ValueError("sigma must be positive semidefinite within tolerance")
        _check_risk_aversion(self.q)
        if not 0 < self.budget < n:
            raise ValueError("budget must satisfy 0 < B < n")
        _check_penalty(self.penalty)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.mu.size


def build_portfolio_qubo(spec: PortfolioSpec) -> Qubo:
    """Risk-return objective with the budget equality folded as a penalty."""
    quadratic = spec.q * spec.sigma
    linear = -spec.mu
    weight = spec.penalty if spec.penalty is not None else _auto_penalty(quadratic, linear)
    base = Qubo(n=spec.n, quadratic=quadratic, linear=linear)
    return fold_equality(base, np.ones((1, spec.n)), np.array([float(spec.budget)]), weight)


@dataclass(frozen=True)
class FrontierPoint:
    risk: float
    ret: float
    x: np.ndarray


def efficient_frontier(mu, sigma, q_values) -> list[FrontierPoint]:
    """Brute-force optimum of q x'Sigma x - mu'x for each q, without a budget.

    Every q must be finite and positive; all are checked before any is solved.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    for q in q_values:
        _check_risk_aversion(q)
    points = []
    for q in q_values:
        qubo = Qubo(n=mu.size, quadratic=q * sigma, linear=-mu)
        x_opt, _ = brute_force(qubo)
        points.append(FrontierPoint(risk=float(x_opt @ sigma @ x_opt),
                                    ret=float(mu @ x_opt), x=x_opt))
    return points


@dataclass(frozen=True)
class DiversificationSpec:
    """Select q_clusters representative stocks maximizing intra-cluster similarity."""

    rho: np.ndarray
    q_clusters: int
    penalty: float | None = None

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        n = rho.shape[0]
        if rho.shape != (n, n):
            raise ValueError("rho must be square")
        if not np.isfinite(rho).all():
            raise ValueError("similarities must be finite")
        if np.max(np.abs(rho - rho.T), initial=0.0) > 1e-9:
            raise ValueError("rho must be symmetric")
        if not np.allclose(np.diag(rho), 1.0, atol=1e-9):
            raise ValueError("rho must have unit diagonal")
        if np.any(rho > 1.0 + 1e-9):
            raise ValueError("similarities must not exceed 1")
        if not 1 <= self.q_clusters <= n:
            raise ValueError("q_clusters must lie in [1, n]")
        _check_penalty(self.penalty)
        object.__setattr__(self, "rho", rho)

    @property
    def n(self) -> int:
        return self.rho.shape[0]


def diversification_variable_count(n: int) -> int:
    return n * n + n


def build_diversification_qubo(spec: DiversificationSpec) -> Qubo:
    """Negated similarity sum plus penalty families, over x_ij (row-major) then y_j.

    Variable index(x_ij) = i*n + j and index(y_j) = n^2 + j. Penalty families:
    cluster budget (sum_j y_j - q)^2, one representative per row, diagonal
    consistency (x_jj - y_j)^2, and the product x_ij (1 - y_j) added linearly
    since it is already nonnegative on binaries.
    """
    n = spec.n
    n_vars = diversification_variable_count(n)
    weight = spec.penalty if spec.penalty is not None else _auto_penalty(
        np.zeros((1, 1)), spec.rho.flatten())

    rows = np.arange(n)
    x_of = rows[:, None] * n + rows  # index of x_ij at [i, j]
    y_of = n * n + rows

    linear = np.zeros(n_vars)
    linear[x_of] -= spec.rho
    base = Qubo(n=n_vars, quadratic=np.zeros((n_vars, n_vars)), linear=linear)

    budget_row = np.zeros((1, n_vars))
    budget_row[0, y_of] = 1.0
    base = fold_equality(base, budget_row, np.array([float(spec.q_clusters)]), weight)

    assign_rows = np.zeros((n, n_vars))
    assign_rows[rows[:, None], x_of] = 1.0
    base = fold_equality(base, assign_rows, np.ones(n), weight)

    diag_rows = np.zeros((n, n_vars))
    diag_rows[rows, x_of[rows, rows]] = 1.0
    diag_rows[rows, y_of] = -1.0
    base = fold_equality(base, diag_rows, np.zeros(n), weight)

    # x_ij (1 - y_j): linear on x_ij minus the product coupling, in the arrays
    # the last fold made
    base.linear[x_of] += weight
    base.quadratic[x_of, y_of] -= 0.5 * weight
    base.quadratic[y_of, x_of] -= 0.5 * weight
    return Qubo(n=n_vars, quadratic=base.quadratic, linear=base.linear, constant=base.constant)


@dataclass(frozen=True)
class DiversificationDecode:
    selected: tuple[int, ...]
    assignment: dict[int, int]
    feasible: bool
    violations: tuple[str, ...]


def decode_diversification(bits, q_clusters: int) -> DiversificationDecode:
    """Recover stock selection and representative map; report violated families."""
    bits = np.asarray(bits, dtype=int)
    n = int((math.isqrt(4 * bits.size + 1) - 1) // 2)
    if n * n + n != bits.size:
        raise ValueError("bitstring length must be n^2 + n")
    x_mat = bits[:n * n].reshape(n, n)
    y_vec = bits[n * n:]
    selected = tuple(int(j) for j in range(n) if y_vec[j])
    assignment: dict[int, int] = {}
    violations = []
    for i in range(n):
        row = np.nonzero(x_mat[i])[0]
        if row.size == 1:
            assignment[i] = int(row[0])
        else:
            violations.append("row-assignment")
    if len(selected) != q_clusters:
        violations.append("budget")
    for j in range(n):
        if x_mat[j, j] != y_vec[j]:
            violations.append("diagonal-consistency")
            break
    if any(x_mat[i, j] and not y_vec[j] for i in range(n) for j in range(n)):
        violations.append("representative-selected")
    violations = tuple(dict.fromkeys(violations))
    return DiversificationDecode(selected=selected, assignment=assignment,
                                 feasible=not violations, violations=violations)


# ---------------------------------------------------------------------------
# file formats


def write_portfolio_instance(path, spec: PortfolioSpec) -> None:
    """Labeled-line format: mu row, n sigma rows, q, budget, optional penalty."""
    lines = ["mu," + ",".join(repr(float(v)) for v in spec.mu)]
    for row in spec.sigma:
        lines.append("sigma," + ",".join(repr(float(v)) for v in row))
    lines.append(f"q,{spec.q!r}")
    lines.append(f"budget,{spec.budget}")
    if spec.penalty is not None:
        lines.append(f"penalty,{spec.penalty!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_portfolio_instance(path) -> PortfolioSpec:
    """The labeled-line instance; a malformed line is refused by its line number.

    Each ``mu`` and ``sigma`` value must be finite, and every such line as
    wide as the first; ``q`` and ``penalty`` must be finite and positive, and
    ``budget`` a positive integer. Each label but ``sigma`` appears once.
    """
    found, sigma_rows = {}, []
    with inputs.rows(path, "portfolio instance") as rows:
        for fields in rows:
            label, values = fields[0].strip(), fields[1:]
            if label in found:
                raise ValueError(f"a second {label} line")
            if label in ("mu", "sigma"):
                row = inputs.finite_floats(values, f"{label} values")
                first = found["mu"] if "mu" in found else sigma_rows[0] if sigma_rows else row
                if len(row) != len(first):
                    raise ValueError(f"{label} has {len(row)} values, expected {len(first)}")
                if label == "mu":
                    found["mu"] = row
                else:
                    sigma_rows.append(row)
            elif label in ("q", "budget", "penalty"):
                if len(values) != 1:
                    raise ValueError(f"{label} takes one value, got {len(values)}")
                found[label] = int(values[0]) if label == "budget" else float(values[0])
                if not 0 < found[label] < math.inf:
                    raise ValueError(f"{label} must be finite and positive")
            else:
                raise ValueError(f"unknown label {label!r}")
    if not sigma_rows or not {"mu", "q", "budget"} <= found.keys():
        raise ValueError("portfolio instance needs mu, sigma, q, and budget")
    return PortfolioSpec(mu=found["mu"], sigma=sigma_rows, q=found["q"],
                         budget=found["budget"], penalty=found.get("penalty"))


def read_similarity_csv(path) -> np.ndarray:
    """The n x n matrix of a plain CSV; a malformed row is refused by its line number."""
    matrix = []
    with inputs.rows(path, "similarity") as rows:
        for fields in rows:
            if matrix and len(fields) != len(matrix[0]):
                raise ValueError(f"{len(fields)} fields, the first row has {len(matrix[0])}")
            matrix.append(inputs.finite_floats(fields, "similarities"))
    matrix = np.array(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("similarity file must hold a square matrix")
    return matrix
