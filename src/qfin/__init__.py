"""Quantum-finance toolkit on an exact dense statevector simulator.

Subpackages by capability: ``simulator`` (the 24-qubit ceiling, and gate
tuples with the engine ``apply_ops`` and readout that apply them, which no
command reaches: the tests check every compiled path against them),
``amplitude_estimation`` (Grover operator and closed-form phase-estimation
readout), ``distributions`` (register loading), ``credit_risk`` (VaR/ECR
by AE bisection with classical oracles), ``qubo`` (penalty folding, Ising
conversion, portfolio and diversification builders, and the energy table
every QUBO solver reads), ``variational`` (VQE/QAOA, and
``minimize_table``, the one QUBO solve), ``admm`` (three-block
mixed-binary ADMM and auctions), ``classifier`` (variational quantum
classification with QRAC), and ``cli``.
"""

__version__ = "0.1.0"

from .simulator import (  # noqa: F401
    CapacityError,
    GateOp,
    IsingObservable,
    Statevector,
    basis_probabilities,
    new_zero_state,
)
from .amplitude_estimation import (  # noqa: F401
    AeResult,
    EstimationProblem,
    error_bound,
    qpe_failure_probability,
    run_ae,
    true_amplitude,
)
