"""Small helpers that only the tests use, kept out of the package.

Each was a public function of ``qfin`` that no command calls: a penalty
scale for QUBO tests, an unconstrained ADMM problem, an ADMM result's
per-iteration histories, a classifier's one-record prediction, the
feature-map state of one record and a state's expectation of a diagonal
observable. ``solve_auction_loop`` is the per-subset
loop that ``admm.solve_auction_exact`` replaced with subset-sum tables, and
``z_sign_loop`` the sign loop that ``simulator.z_diagonal`` replaced.
"""

import numpy as np

from qfin import admm
from qfin import classifier as clf
from qfin import qubo as qb
from qfin import simulator as sv


def energy_spread(qubo: qb.Qubo) -> float:
    """max - min energy over all assignments; a sufficient penalty scale."""
    energies = qb.all_energies(qubo)
    return float(energies.max() - energies.min())


def pure_binary_problem(quadratic, linear) -> admm.MboProblem:
    """MBO with no continuous part and no constraints: blocks decouple."""
    quadratic = np.asarray(quadratic, dtype=float)
    linear = np.asarray(linear, dtype=float)
    n = linear.size
    empty_rows = np.zeros((0, n))
    return admm.MboProblem(
        q_quadratic=quadratic, q_linear=linear,
        eq_matrix=empty_rows, eq_rhs=np.zeros(0),
        ineq_matrix=empty_rows, ineq_rhs=np.zeros(0),
        phi_quadratic=np.zeros((0, 0)), phi_linear=np.zeros(0),
        u_lower=np.zeros(0), u_upper=np.zeros(0),
        joint_x=np.zeros((0, n)), joint_u=np.zeros((0, 0)), joint_rhs=np.zeros(0),
        a0=np.zeros((0, n)), a1=np.zeros((0, 0)),
    )


def solve_auction_loop(bids, units) -> tuple[np.ndarray, float]:
    """Exhaustive winner determination, one subset and one bid at a time."""
    bids = [b if isinstance(b, admm.Bid) else admm.Bid(tuple(b[0]), float(b[1])) for b in bids]
    units = np.asarray(units, dtype=float)
    n = len(bids)
    best_x = np.zeros(n)
    best_profit = 0.0
    for mask in range(1 << n):
        load = np.zeros(units.size)
        profit = 0.0
        for j in range(n):
            if (mask >> j) & 1:
                load += np.asarray(bids[j].quantities, dtype=float)
                profit += bids[j].price
        if np.all(load <= units + 1e-9) and profit > best_profit:
            best_profit = profit
            best_x = np.array([(mask >> j) & 1 for j in range(n)], dtype=float)
    return best_x, best_profit


def residual_history(result: admm.AdmmResult) -> list[float]:
    return [it.residual_norm for it in result.trace]


def merit_history(result: admm.AdmmResult) -> list[float]:
    return [it.merit for it in result.trace]


def predict(model: clf.VqcModel, continuous, categorical=()) -> int:
    return 1 if clf.decision(model, continuous, categorical) >= 0.0 else -1


def feature_state(n_qubits: int, repetitions: int, x) -> sv.Statevector:
    return sv.apply_ops(sv.new_zero_state(n_qubits), clf.feature_map_ops(n_qubits, repetitions, x))


def expectation(state: sv.Statevector, observable: sv.IsingObservable) -> float:
    """Exact probability-weighted energy; no shot noise."""
    table = observable.energy_table(state.n_qubits)
    return float(sv.basis_probabilities(state) @ table)


def z_sign_loop(n_qubits: int, terms, offset: float = 0.0) -> np.ndarray:
    """offset + sum_S c_S prod_S Z, each term's sign vector built from all 2^n indices."""
    idx = np.arange(1 << n_qubits)
    out = np.full(idx.shape, offset, dtype=float)
    for support, coeff in terms:
        sign = np.ones(idx.shape)
        for q in support:
            sign *= 1.0 - 2.0 * ((idx >> q) & 1)
        out += coeff * sign
    return out
