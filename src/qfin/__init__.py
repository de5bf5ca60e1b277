"""Quantum-finance toolkit on an exact dense statevector simulator.

Modules by capability: ``simulator`` (the 24-qubit ceiling, and the gate
engine the tests check every compiled path against), ``amplitude_estimation``
(closed-form phase-estimation readout), ``distributions`` (register loading),
``credit_risk`` (VaR/ECR by AE bisection with classical oracles), ``qubo``
(QUBO builders and the energy table every QUBO solver reads), ``variational``
(VQE/QAOA, and ``minimize_table``, the one QUBO solve), ``admm`` (three-block
mixed-binary ADMM and auctions), ``classifier`` (variational quantum
classification with QRAC), and ``cli``. The package itself exports only
``__version__``; import each module by name.
"""

__version__ = "0.1.0"
