"""Canonical phase-estimation-based amplitude estimation.

Given an operator A on n+1 qubits preparing
``sqrt(1-a)|psi_0>|0> + sqrt(a)|psi_1>|1>`` on a designated objective qubit,
the Grover operator built from two reflections rotates the good/bad span by
twice the angle theta_a with a = sin^2(theta_a). Reading the rotation angle
out through phase estimation on m counting qubits yields the estimator
``sin^2(pi*y/M)`` with M = 2^m.

That readout distribution depends on a alone (Brassard-Hoyer-Mosca-Tapp,
quant-ph/0005055), so ``run_ae`` takes a and simulates nothing, neither A nor
the counting qubits; m has its own bound, MAX_COUNTING_QUBITS. The gates of A
and Q built below are the oracle the closed form is checked against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .simulator import (
    CapacityError,
    GateOp,
    Statevector,
    apply_ops,
    inverse_op,
    new_zero_state,
    phase_gate,
    probability_of_one,
)

# The readout costs a few float arrays of 2^m entries: at m = 20 a run peaks
# near 130 MiB, and each further bit doubles that.
MAX_COUNTING_QUBITS = 20


@dataclass(frozen=True)
class EstimationProblem:
    """Gates of A on n_state_qubits + 1 qubits, and the qubit whose |1> probability is sought."""

    a_ops: tuple[GateOp, ...]
    objective_qubit: int
    n_state_qubits: int

    def __post_init__(self):
        for op in self.a_ops:
            if not all(0 <= q < self.n_qubits for q in op.targets + op.controls):
                raise ValueError("a_ops must act on n_state_qubits + 1 qubits")
        if not 0 <= self.objective_qubit < self.n_qubits:
            raise ValueError("objective qubit out of range")

    @property
    def n_qubits(self) -> int:
        return self.n_state_qubits + 1


@dataclass(frozen=True)
class AeResult:
    """Exact readout distribution and the mode-based estimate."""

    m: int
    distribution: np.ndarray
    y_mode: int
    a_estimate: float


def prepare(problem: EstimationProblem) -> Statevector:
    """Apply A to the all-zeros register."""
    return apply_ops(new_zero_state(problem.n_qubits), problem.a_ops)


def true_amplitude(problem: EstimationProblem) -> float:
    """Exact a = P(objective reads 1 after A), from the statevector marginal."""
    return probability_of_one(prepare(problem), problem.objective_qubit)


def grover_ops(problem: EstimationProblem) -> tuple:
    """Gate sequence for Q = A S_0 A^dag S_good.

    S_good is the objective-qubit oracle: sign flip on objective = 1 composed
    with a global sign, so the reflection carries correctly under controls.
    S_0 flips the sign of the all-zeros state of the full A register.
    """
    n_total = problem.n_qubits
    s_good = phase_gate((problem.objective_qubit,), (math.pi, 0.0))
    zero_phases = [0.0] * (1 << n_total)
    zero_phases[0] = math.pi
    s_zero = phase_gate(tuple(range(n_total)), tuple(zero_phases))
    a_ops = problem.a_ops
    a_dag = tuple(inverse_op(op) for op in reversed(a_ops))
    return (s_good,) + a_dag + (s_zero,) + a_ops


def check_counting_qubits(m: int) -> None:
    """Refuse m < 1 (ValueError) and m above MAX_COUNTING_QUBITS (CapacityError)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > MAX_COUNTING_QUBITS:
        raise CapacityError(f"m={m} counting qubits, at most {MAX_COUNTING_QUBITS}")


def run_ae(a: float, m: int) -> AeResult:
    """Phase estimation of the Grover operator on m counting qubits, for amplitude a.

    The readout distribution is evaluated exactly from a = sin^2(theta), a
    clamped to [0, 1]: P(y) = [F_M(y/M - theta/pi) + F_M(y/M + theta/pi)]/2
    with the Fejer kernel F_M(d) = sin^2(M pi d) / (M^2 sin^2(pi d)), and
    F_M = 1 where sin(pi d) = 0. Nothing is simulated; m above
    MAX_COUNTING_QUBITS raises CapacityError.

    The estimate is the mode of the exact distribution. Since P(y) = P(M - y),
    the mode always ties with its mirror image; the tie rule takes the first
    maximum over y = 0..M/2.
    """
    check_counting_qubits(m)
    a = min(max(a, 0.0), 1.0)
    big_m = 1 << m
    phase = math.asin(math.sqrt(a)) / math.pi
    y = np.arange(big_m) / big_m
    delta = np.stack([y - phase, y + phase])
    ratio = np.divide(np.sin(big_m * np.pi * delta), big_m * np.sin(np.pi * delta),
                      out=np.ones_like(delta), where=delta != 0.0)
    dist = 0.5 * (ratio ** 2).sum(axis=0)

    y_mode = int(np.argmax(dist[:big_m // 2 + 1]))
    a_est = math.sin(math.pi * y_mode / big_m) ** 2
    return AeResult(m=m, distribution=dist, y_mode=y_mode, a_estimate=a_est)


def estimates_grid(m: int) -> np.ndarray:
    """The M representable estimates sin^2(pi*y/M) for y = 0..M-1."""
    y = np.arange(1 << m)
    return np.sin(np.pi * y / (1 << m)) ** 2


def error_bound(a: float, big_m: int) -> float:
    """Estimation error bound 2 sqrt(a(1-a)) pi / M + pi^2 / M^2."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("a must lie in [0, 1]")
    if big_m < 2:
        raise ValueError("M must be >= 2")
    return 2.0 * math.sqrt(a * (1.0 - a)) * math.pi / big_m + math.pi ** 2 / big_m ** 2


def coverage_probability(a: float, m: int) -> float:
    """Exact AE output mass on estimates within error_bound(a, 2^m) of a."""
    bound = error_bound(a, 1 << m)
    result = run_ae(a, m)
    grid = estimates_grid(m)
    return float(result.distribution[np.abs(grid - a) <= bound].sum())


def qpe_failure_probability(s: int, p: int) -> float:
    """Probability of missing s-bit accuracy in phase estimation with s+p qubits."""
    if s < 1 or p < 1:
        raise ValueError("s and p must be >= 1")
    t = p + s
    total = 0.0
    for l in range(1, (1 << (p - 1)) + 1):
        total += 1.0 / (1.0 - math.cos(math.pi * (2 * l - 1) / (1 << t)))
    return 1.0 - total / (1 << (2 * t - 2))
