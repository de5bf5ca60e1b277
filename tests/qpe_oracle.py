"""Circuit-level phase-estimation gates, kept as test oracles.

``run_ae`` evaluates the phase-estimation readout in closed form from the
amplitude alone, so the package applies no controlled Grover operator and
no inverse QFT, and builds no A to find a given amplitude. These builders
reproduce the circuit those formulas replace, for the tests that compare
against it.
"""

import math

from qfin import simulator as sv
from qfin.amplitude_estimation import EstimationProblem


def single_qubit_problem(a: float) -> EstimationProblem:
    """A acting on one qubit only: RY(2 arcsin sqrt(a)) on the objective."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("a must lie in [0, 1]")
    theta = 2.0 * math.asin(math.sqrt(a))
    return EstimationProblem((sv.ry(theta, 0),), objective_qubit=0, n_state_qubits=0)


def with_control(op: sv.GateOp, control: int) -> sv.GateOp:
    """Return ``op`` with one more control qubit attached."""
    if control in op.targets or control in op.controls:
        raise ValueError("control qubit already used by the gate")
    return sv.GateOp(op.kind, op.targets, op.controls + (control,),
                     theta=op.theta, phases=op.phases, table=op.table)


def controlled_ops(ops, control: int) -> tuple[sv.GateOp, ...]:
    """Attach ``control`` to every gate, controlling the whole sequence."""
    return tuple(with_control(op, control) for op in ops)


def qft_ops(register) -> tuple[sv.GateOp, ...]:
    """Fourier transform F_M on a register listed LSB first (register[i] weighs 2^i)."""
    reg = tuple(register)
    if len(set(reg)) != len(reg):
        raise ValueError("duplicate qubit indices in register")
    ops = []
    m = len(reg)
    for j in reversed(range(m)):
        ops.append(sv.h(reg[j]))
        for i in reversed(range(j)):
            angle = math.pi / (1 << (j - i))
            ops.append(sv.phase_gate((reg[i],), (0.0, angle), controls=(reg[j],)))
    for i in range(m // 2):
        ops.append(sv.perm_gate((reg[i], reg[m - 1 - i]), (0, 2, 1, 3)))
    return tuple(ops)


def inverse_qft_ops(register) -> tuple[sv.GateOp, ...]:
    return tuple(sv.inverse_op(op) for op in reversed(qft_ops(register)))


def inverse_qft(state: sv.Statevector, register) -> sv.Statevector:
    """Apply F_M^dagger (|k> -> M^{-1/2} sum_y e^{-2 pi i yk/M} |y>) to the register."""
    return sv.apply_ops(state, inverse_qft_ops(register))
