import math

import numpy as np
import pytest

from qfin import simulator as sv
from oracles import expectation, z_diagonal_by_layout, z_sign_loop
from qpe_oracle import controlled_ops, inverse_qft


# a swap of two qubits, as a permutation of their sub-basis
SWAP_TABLE = (0, 2, 1, 3)


def dense_unitary(op, n):
    """Independent oracle: build the full 2^n x 2^n matrix by applying op to basis states."""
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[col] = 1.0
        mat[:, col] = sv.apply_ops(sv.Statevector(n, amps), [op]).amplitudes
    return mat


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return sv.Statevector(n, v / np.linalg.norm(v))


def test_new_zero_state_basics():
    assert np.allclose(sv.new_zero_state(1).amplitudes, [1, 0])
    assert np.allclose(sv.new_zero_state(2).amplitudes, [1, 0, 0, 0])
    big = sv.new_zero_state(12)
    assert big.dim == 4096
    assert big.amplitudes[0] == 1.0
    assert np.count_nonzero(big.amplitudes) == 1


def test_capacity_ceiling():
    with pytest.raises(sv.CapacityError):
        sv.new_zero_state(0)
    with pytest.raises(sv.CapacityError):
        sv.new_zero_state(25)


def test_hadamard_on_zero():
    state = sv.apply_ops(sv.new_zero_state(1), [sv.h(0)])
    root_half = 1.0 / math.sqrt(2.0)
    assert np.allclose(state.amplitudes, [root_half, root_half], atol=1e-12)


def test_cnot_truth_table():
    # |q1 q0>: control qubit 0, target qubit 1
    for q0, q1, expect in [(0, 0, 0b00), (1, 0, 0b11), (0, 1, 0b10), (1, 1, 0b01)]:
        amps = np.zeros(4, dtype=complex)
        amps[q0 | (q1 << 1)] = 1.0
        out = sv.apply_ops(sv.Statevector(2, amps), [sv.cnot(0, 1)])
        assert np.argmax(np.abs(out.amplitudes)) == expect


def test_ry_probability_matches_rotation_matrix():
    # oracle: numerically evaluate the 2x2 rotation on |0>
    theta = 2.0 * math.asin(math.sqrt(0.15))
    half = theta / 2.0
    oracle = np.array([[math.cos(half), -math.sin(half)],
                       [math.sin(half), math.cos(half)]]) @ np.array([1.0, 0.0])
    state = sv.apply_ops(sv.new_zero_state(1), [sv.ry(theta, 0)])
    assert np.allclose(state.amplitudes, oracle, atol=1e-12)
    assert abs(sv.probability_of_one(state, 0) - 0.15) < 1e-12


def test_index_out_of_range_rejected():
    state = sv.new_zero_state(2)
    with pytest.raises(ValueError):
        sv.apply_ops(state, [sv.x(2)])
    with pytest.raises(ValueError):
        sv.apply_ops(state, [sv.ry(0.3, 0, controls=(5,))])


def _random_ops(n, rng):
    dim_sub = 4
    table = list(range(dim_sub))
    rng.shuffle(table)
    return [
        sv.h(int(rng.integers(n))),
        sv.x(int(rng.integers(n))),
        sv.rx(float(rng.uniform(-3, 3)), 0),
        sv.ry(float(rng.uniform(-3, 3)), n - 1),
        sv.rz(float(rng.uniform(-3, 3)), 1),
        sv.cnot(0, 1),
        sv.perm_gate((1, n - 1) if n > 2 else (0, 1), SWAP_TABLE),
        sv.phase_gate((0, 1), tuple(rng.uniform(-3, 3, size=4))),
        sv.perm_gate((0, 1), tuple(table)),
        sv.ry(float(rng.uniform(-3, 3)), 0, controls=(n - 1,)),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_norm_preservation_every_kind(seed):
    rng = np.random.default_rng(seed)
    n = 3
    state = random_state(n, seed + 50)
    for op in _random_ops(n, rng):
        out = sv.apply_ops(state, [op])
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_apply_inverse_identity_every_kind(seed):
    rng = np.random.default_rng(seed)
    n = 3
    state = random_state(n, seed)
    for op in _random_ops(n, rng):
        roundtrip = sv.apply_ops(state, [op, sv.inverse_op(op)])
        assert np.max(np.abs(roundtrip.amplitudes - state.amplitudes)) < 1e-9


def test_circuit_inverse_roundtrip_random():
    rng = np.random.default_rng(99)
    n = 4
    ops = []
    for _ in range(30):
        ops.extend(_random_ops(n, rng))
    ops = ops[:40]
    state = random_state(n, 123)
    forward = sv.apply_ops(state, ops)
    back = sv.apply_ops(forward, [sv.inverse_op(op) for op in reversed(ops)])
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-9


def test_empty_circuit_and_double_h():
    state = random_state(3, 7)
    assert np.allclose(sv.apply_ops(state, ()).amplitudes, state.amplitudes)
    double_h = (sv.h(0), sv.h(0))
    one = random_state(1, 8)
    assert np.max(np.abs(sv.apply_ops(one, double_h).amplitudes
                         - one.amplitudes)) < 1e-12


def test_inverse_qft_single_qubit_is_hadamard():
    for basis in (0, 1):
        amps = np.zeros(2, dtype=complex)
        amps[basis] = 1.0
        via_qft = inverse_qft(sv.Statevector(1, amps.copy()), [0])
        via_h = sv.apply_ops(sv.Statevector(1, amps.copy()), [sv.h(0)])
        assert np.allclose(via_qft.amplitudes, via_h.amplitudes, atol=1e-12)


def test_inverse_qft_collapses_uniform_superposition():
    n = 3
    state = sv.new_zero_state(n)
    for q in range(n):
        state = sv.apply_ops(state, [sv.h(q)])
    out = inverse_qft(state, list(range(n)))
    assert abs(abs(out.amplitudes[0]) - 1.0) < 1e-10


def test_inverse_qft_extracts_fourier_phase():
    amps = np.exp(2j * np.pi * 3 * np.arange(8) / 8) / math.sqrt(8)
    out = inverse_qft(sv.Statevector(3, amps), [0, 1, 2])
    probs = np.abs(out.amplitudes) ** 2
    assert probs[3] > 1.0 - 1e-9


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_inverse_qft_matches_dense_matrix_oracle(m):
    big_m = 1 << m
    y, k = np.meshgrid(np.arange(big_m), np.arange(big_m), indexing="ij")
    dense = np.exp(-2j * np.pi * y * k / big_m) / math.sqrt(big_m)
    state = random_state(m, m + 11)
    got = inverse_qft(state, list(range(m))).amplitudes
    want = dense @ state.amplitudes
    assert np.max(np.abs(got - want)) < 1e-9


def test_inverse_qft_rejects_duplicates():
    with pytest.raises(ValueError):
        inverse_qft(sv.new_zero_state(2), [0, 0])


def test_probabilities_sum_to_one():
    state = random_state(5, 3)
    assert abs(sv.basis_probabilities(state).sum() - 1.0) < 1e-10


def test_expectation_z_eigenstates():
    z = sv.IsingObservable(terms=(((0,), 1.0),))
    zero = sv.new_zero_state(1)
    assert expectation(zero, z) == pytest.approx(1.0)
    plus = sv.apply_ops(zero, [sv.h(0)])
    assert expectation(plus, z) == pytest.approx(0.0, abs=1e-12)


def test_expectation_matches_enumeration_oracle():
    rng = np.random.default_rng(31)
    terms = (((0,), rng.normal()), ((1, 2), rng.normal()), ((0, 1, 2), rng.normal()))
    obs = sv.IsingObservable(terms=terms, offset=rng.normal())
    state = random_state(3, 77)
    # oracle: explicit loop over basis states
    total = 0.0
    for z in range(8):
        bits = [(z >> q) & 1 for q in range(3)]
        energy = obs.offset
        for support, coeff in terms:
            prod = 1.0
            for q in support:
                prod *= 1 - 2 * bits[q]
            energy += coeff * prod
        total += abs(state.amplitudes[z]) ** 2 * energy
    assert expectation(state, obs) == pytest.approx(total, abs=1e-10)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_expectation_enumeration_consistency_scales(n):
    rng = np.random.default_rng(n)
    terms = tuple(((int(a), int(b)), float(rng.normal()))
                  for a, b in rng.integers(0, n, size=(5, 2)) if a != b)
    terms += tuple(((int(q),), float(rng.normal())) for q in rng.integers(0, n, size=3))
    obs = sv.IsingObservable(terms=terms, offset=0.3)
    state = random_state(n, n + 1)
    probs = sv.basis_probabilities(state)
    oracle = sum(probs[z] * obs.energy_of([(z >> q) & 1 for q in range(n)])
                 for z in range(1 << n))
    assert expectation(state, obs) == pytest.approx(oracle, abs=1e-9)


def test_expectation_rejects_out_of_range_support():
    obs = sv.IsingObservable(terms=(((3,), 1.0),))
    with pytest.raises(ValueError):
        expectation(sv.new_zero_state(2), obs)


def test_controlled_ops_control_whole_sequence():
    # a controlled X-sandwiched rotation behaves as the controlled version of the block
    inner = [sv.x(0), sv.ry(1.1, 1, controls=(0,)), sv.x(0)]
    controlled = controlled_ops(inner, 2)
    base = random_state(3, 41)
    # control = 0 on |ctrl=0> subspace: build state with qubit 2 = 0
    amps = base.amplitudes.copy()
    amps[4:] = 0.0
    amps /= np.linalg.norm(amps)
    state = sv.Statevector(3, amps)
    out = sv.apply_ops(state, controlled)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_gate_validation():
    with pytest.raises(ValueError):
        sv.GateOp("nope", (0,))
    with pytest.raises(ValueError):
        sv.ry(0.2, 1, controls=(1,))  # overlap
    with pytest.raises(ValueError):
        sv.phase_gate((0, 1), (0.0,))  # wrong table size
    with pytest.raises(ValueError):
        sv.perm_gate((0,), (0, 0))  # not a bijection


def _every_kind_ops(n, rng):
    """One gate of each kind, plain and with controls (n >= 4)."""
    table = [int(v) for v in rng.permutation(4)]
    plain = [
        sv.h(0), sv.x(1), sv.rx(float(rng.uniform(-3, 3)), 2),
        sv.ry(float(rng.uniform(-3, 3)), 3), sv.rz(float(rng.uniform(-3, 3)), 0),
        sv.cnot(1, 2), sv.perm_gate((0, 3), SWAP_TABLE),
        sv.phase_gate((1, 3), tuple(rng.uniform(-3, 3, size=4))),
        sv.perm_gate((0, 2), table),
    ]
    controlled = [
        sv.h(0, controls=(3,)), sv.x(1, controls=(0,)),
        sv.rx(float(rng.uniform(-3, 3)), 2, controls=(1, 3)),
        sv.ry(float(rng.uniform(-3, 3)), 3, controls=(2,)),
        sv.rz(float(rng.uniform(-3, 3)), 0, controls=(1,)),
        sv.cnot(1, 2, controls=(0,)), sv.perm_gate((0, 3), SWAP_TABLE, controls=(2,)),
        sv.phase_gate((1, 3), tuple(rng.uniform(-3, 3, size=4)), controls=(0,)),
        sv.perm_gate((0, 2), table, controls=(1, 3)),
    ]
    return plain + controlled


def _random_block(n, batch, seed):
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(1 << n, batch)) + 1j * rng.normal(size=(1 << n, batch))
    return block / np.linalg.norm(block, axis=0)


@pytest.mark.parametrize("seed", range(3))
def test_batch_axis_matches_each_column_every_kind(seed):
    rng = np.random.default_rng(seed)
    n, batch = 4, 5
    block = _random_block(n, batch, seed + 200)
    for op in _every_kind_ops(n, rng):
        out = sv.apply_ops(sv.Statevector(n, block), [op]).amplitudes
        assert out.shape == (1 << n, batch)
        for col in range(batch):
            alone = sv.apply_ops(sv.Statevector(n, block[:, col].copy()), [op]).amplitudes
            assert np.array_equal(out[:, col], alone), (op.kind, op.controls)


def test_batch_axis_matches_each_column_over_a_sequence():
    rng = np.random.default_rng(17)
    n, batch = 5, 7
    ops = _every_kind_ops(n, rng) + _random_ops(n, rng)
    block = _random_block(n, batch, 18)
    out = sv.apply_ops(sv.Statevector(n, block), ops).amplitudes
    for col in range(batch):
        alone = sv.apply_ops(sv.Statevector(n, block[:, col].copy()), ops).amplitudes
        assert np.array_equal(out[:, col], alone)


def test_batch_axis_leaves_input_block_untouched():
    block = _random_block(3, 4, 5)
    before = block.copy()
    sv.apply_ops(sv.Statevector(3, block), [sv.h(0), sv.phase_gate((1,), (0.0, 1.0))])
    assert np.array_equal(block, before)


def _fancy_index_1q(amps, n, op):
    """Gather/scatter over each pair's indices, with the gate matrix as a numpy array."""
    if op.kind == "h":
        mat = np.array([[1.0, 1.0], [1.0, -1.0]]) * (1.0 / math.sqrt(2.0))
    elif op.kind == "x":
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        c, s = math.cos(0.5 * op.theta), math.sin(0.5 * op.theta)
        mat = {"rx": np.array([[c, -1j * s], [-1j * s, c]]),
               "ry": np.array([[c, -s], [s, c]]),
               "rz": np.array([[c - 1j * s, 0.0], [0.0, c + 1j * s]])}[op.kind]
    idx = np.arange(1 << n)
    lo = idx[(idx >> op.targets[0]) & 1 == 0]
    hi = lo | (1 << op.targets[0])
    out = amps.copy()
    a0, a1 = amps[lo], amps[hi]
    out[lo] = mat[0, 0] * a0 + mat[0, 1] * a1
    out[hi] = mat[1, 0] * a0 + mat[1, 1] * a1
    return out


def _same_bits(a, b):
    """Equal bit patterns, signed zeros included."""
    return a.shape == b.shape and (np.ascontiguousarray(a).tobytes()
                                   == np.ascontiguousarray(b).tobytes())


def _uncontrolled_ops(n, rng):
    ops = []
    for q in range(n):
        ops += [sv.h(q), sv.x(q)]
        for theta in (float(rng.uniform(-3, 3)), float(rng.uniform(-1e4, 1e4))):
            ops += [sv.rx(theta, q), sv.ry(theta, q), sv.rz(theta, q)]
    return ops


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_strided_kernel_matches_fancy_index_path_bitwise(n):
    rng = np.random.default_rng(n)
    amps = random_state(n, n + 300).amplitudes
    for op in _uncontrolled_ops(n, rng):
        got = sv.apply_ops(sv.Statevector(n, amps), [op]).amplitudes
        assert _same_bits(got, _fancy_index_1q(amps, n, op)), op


@pytest.mark.parametrize("n", [1, 3, 6])
def test_strided_kernel_matches_fancy_index_path_with_batch_axis(n):
    rng = np.random.default_rng(n + 10)
    block = _random_block(n, 3, n + 400)
    for op in _uncontrolled_ops(n, rng):
        out = sv.apply_ops(sv.Statevector(n, block), [op]).amplitudes
        for col in range(block.shape[1]):
            want = _fancy_index_1q(block[:, col].copy(), n, op)
            assert _same_bits(out[:, col], want), op


def test_strided_kernel_on_real_amplitudes_gives_the_complex_probabilities():
    n = 5
    rng = np.random.default_rng(3)
    real = rng.normal(size=1 << n)
    cplx = real.astype(complex)
    for op in [sv.h(2), sv.x(0), sv.ry(0.7, 4), sv.ry(-2.9e3, 1)]:
        sv.apply_1q_inplace(real, op.targets[0], op.kind, op.theta)
        cplx = _fancy_index_1q(cplx, n, op)
        assert np.array_equal(real, cplx.real)
        assert np.array_equal(np.abs(real) ** 2, np.abs(cplx) ** 2)


# The index-array gather path the split-view kernel replaced, kept as its
# oracle: every gate gathers the rows it touches through an index array.


def _pair_indices(n, target, ctrl_mask):
    idx = np.arange(1 << n, dtype=np.intp)
    lo = idx[(idx & (1 << target)) == 0]
    if ctrl_mask:
        lo = lo[(lo & ctrl_mask) == ctrl_mask]
    return lo, lo | (1 << target)


def _masked_indices(n, ctrl_mask):
    idx = np.arange(1 << n, dtype=np.intp)
    return idx[(idx & ctrl_mask) == ctrl_mask] if ctrl_mask else idx


def _sub_index(idx, targets):
    sub = np.zeros_like(idx)
    for j, t in enumerate(targets):
        sub |= ((idx >> t) & 1) << j
    return sub


def _scatter_sub(sub, targets):
    out = np.zeros_like(sub)
    for j, t in enumerate(targets):
        out |= ((sub >> j) & 1) << t
    return out


def _mask(qubits):
    return sum(1 << q for q in qubits)


def _gather_apply(amps, n, op):
    """One gate by index gathers, on a copy of ``amps``."""
    amps = amps.copy()
    ctrl = _mask(op.controls)
    if op.kind in ("h", "x", "rx", "ry", "rz", "cnot"):
        target = op.targets[-1]
        if op.kind == "cnot":
            ctrl |= 1 << op.targets[0]
        mat = sv._matrix_1q(op.kind, op.theta)
        lo, hi = _pair_indices(n, target, ctrl)
        a0, a1 = amps[lo], amps[hi]
        amps[lo] = mat[0] * a0 + mat[1] * a1
        amps[hi] = mat[2] * a0 + mat[3] * a1
    elif op.kind == "phase":
        idx = _masked_indices(n, ctrl)
        factors = np.exp(1j * np.asarray(op.phases))[_sub_index(idx, op.targets)]
        if amps.ndim > 1:
            factors = factors[:, None]
        amps[idx] *= factors
    else:
        idx = _masked_indices(n, ctrl)
        new_sub = np.asarray(op.table, dtype=np.intp)[_sub_index(idx, op.targets)]
        dest = (idx & ~_mask(op.targets)) | _scatter_sub(new_sub, op.targets)
        amps[dest] = amps[idx].copy()
    return amps


# every gate kind, and "swap": a perm gate with SWAP_TABLE
KINDS = ("cnot", "h", "perm", "phase", "rx", "ry", "rz", "swap", "x")


def _random_gate(kind, n, n_controls, rng):
    width = {"cnot": 2, "swap": 2, "phase": None, "perm": None}.get(kind, 1)
    if width is None:
        width = int(rng.integers(0, min(n - n_controls, 3) + 1))
    qubits = [int(q) for q in rng.permutation(n)[:width + n_controls]]
    targets, controls = tuple(qubits[:width]), tuple(qubits[width:])
    theta = float(rng.uniform(-1e3, 1e3) if rng.random() < 0.3 else rng.uniform(-4, 4))
    phases = tuple(-0.0 if rng.random() < 0.2 else float(p)
                   for p in rng.uniform(-7, 7, size=1 << width))
    if kind == "swap":
        return sv.perm_gate(targets, SWAP_TABLE, controls)
    return sv.GateOp(kind, targets, controls,
                     theta=theta if kind in ("rx", "ry", "rz") else 0.0,
                     phases=phases if kind == "phase" else (),
                     table=tuple(int(v) for v in rng.permutation(1 << width))
                     if kind == "perm" else ())


def _signed_zero_amplitudes(shape, rng):
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps[rng.random(shape) < 0.2] = complex(-0.0, 0.0)
    amps[rng.random(shape) < 0.1] = complex(0.0, -0.0)
    amps[rng.random(shape) < 0.1] = complex(-0.0, -0.0)
    return amps


def test_kinds_cover_every_gate_kind():
    assert set(KINDS) - {"swap"} == sv.GATE_KINDS


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_controls", range(4))
def test_split_view_kernel_matches_gather_oracle_bitwise(kind, n_controls):
    rng = np.random.default_rng([KINDS.index(kind), n_controls])
    for n in range(n_controls + 2, 9):
        for batch in ((), (1,), (3,)):
            for _ in range(6):
                op = _random_gate(kind, n, n_controls, rng)
                amps = _signed_zero_amplitudes((1 << n,) + batch, rng)
                got = sv.apply_ops(sv.Statevector(n, amps), [op]).amplitudes
                assert _same_bits(got, _gather_apply(amps, n, op)), (op, batch)


def test_split_view_kernel_matches_gather_oracle_at_twelve_qubits():
    rng = np.random.default_rng(12)
    n = 12
    amps = _signed_zero_amplitudes(1 << n, rng)
    for kind in KINDS:
        for n_controls in range(4):
            op = _random_gate(kind, n, n_controls, rng)
            got = sv.apply_ops(sv.Statevector(n, amps), [op]).amplitudes
            assert _same_bits(got, _gather_apply(amps, n, op)), op


def test_phase_layout_orders_a_table_by_view_axis():
    # the view's axes run highest qubit first: qubit 2, the block of qubit 1, qubit 0
    shape, select, factor_shape, order = sv.phase_layout(8, (0, 2))
    assert shape == (2, 2, 2) and factor_shape == (2, 1, 2)
    assert select == (slice(None),) * 3 + (...,)
    assert order.tolist() == [0, 1, 2, 3]
    # table bit 0 is qubit 2 here, so the middle two entries trade places
    assert sv.phase_layout(8, (2, 0))[3].tolist() == [0, 2, 1, 3]
    # qubit 3's control axis is selected at 1 and drops out of the factor shape
    shape, select, factor_shape, order = sv.phase_layout(16, (1,), controls=(3,))
    assert shape == (2, 2, 2, 2) and select[0] == 1 and factor_shape == (1, 2, 1)
    assert order.tolist() == [0, 1]


def _z_terms(n, rng):
    """Width-0 to width-3 supports over n qubits, most of them unsorted."""
    terms = [((), float(rng.normal()))]
    for _ in range(3 * n):
        width = int(rng.integers(1, min(n, 3) + 1))
        terms.append((tuple(int(q) for q in rng.permutation(n)[:width]), float(rng.normal())))
    return terms


@pytest.mark.parametrize("n", [1, 3, 6, 11])
def test_z_diagonal_equals_the_sign_loop_bit_for_bit(n):
    rng = np.random.default_rng(n + 200)
    terms = _z_terms(n, rng)
    offset = float(rng.normal())
    assert sv.z_diagonal(n, terms, offset).tobytes() == z_sign_loop(n, terms, offset).tobytes()
    assert sv.z_diagonal(n, terms).tobytes() == z_sign_loop(n, terms).tobytes()
    observable = sv.IsingObservable(terms=tuple(terms), offset=offset)
    assert observable.energy_table(n).tobytes() == z_sign_loop(n, terms, offset).tobytes()


@pytest.mark.parametrize("n", range(1, 15))
def test_z_diagonal_equals_the_per_term_layout_bytewise(n):
    # one sign table per support width and call, where each term built its
    # own through phase_layout: every entry keeps its bytes, with supports
    # in any order (the empty one too), coefficients over seven decades and
    # an offset
    rng = np.random.default_rng(n + 300)
    terms = []
    for _ in range(16):
        support = tuple(int(q) for q in rng.permutation(n)[:rng.integers(0, min(n, 4) + 1)])
        terms.append((support, float(rng.normal()) * 10.0 ** int(rng.integers(-3, 4))))
    for offset in (0.0, -1.75):
        want = z_diagonal_by_layout(n, terms, offset)
        assert sv.z_diagonal(n, terms, offset).tobytes() == want.tobytes(), n


@pytest.mark.parametrize("n", [20, 24])
def test_z_diagonal_equals_the_per_term_layout_bytewise_at_width(n):
    # one axis per qubit up to the ceiling, with supports on the end qubits
    rng = np.random.default_rng(n + 400)
    supports = [(0,), (n - 1,), (n - 1, 0), (0, n // 2, n - 1), (), (n - 2, 1, n - 1, 0)]
    terms = [(support, float(coeff)) for support, coeff in zip(supports, rng.normal(size=6))]
    got, want = sv.z_diagonal(n, terms, -0.5), z_diagonal_by_layout(n, terms, -0.5)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_z_diagonal_of_no_terms_is_the_offset():
    assert sv.z_diagonal(3, []).tolist() == [0.0] * 8
    assert sv.z_diagonal(2, [], 1.5).tolist() == [1.5] * 4
    assert sv.IsingObservable(terms=()).energy_table(2).tolist() == [0.0] * 4


def test_parity_signs_are_the_z_product_of_every_qubit():
    for width in range(5):
        assert sv.parity_signs(width).tobytes() == \
            z_sign_loop(width, [(tuple(range(width)), 1.0)]).tobytes()


@pytest.mark.parametrize("n,depth", [(3, 2), (6, 3)])
def test_compiled_qaoa_matches_gather_oracle(n, depth):
    from qfin import variational as vq

    rng = np.random.default_rng(n)
    terms = [((), 0.4), ((2, 0), 0.7), ((n - 1, 0, 1), -1.3)]
    terms += [((int(q),), float(rng.normal())) for q in rng.permutation(n)[:3]]
    ansatz = vq.qaoa_ansatz(n, depth, sv.IsingObservable(terms=tuple(terms)).energy_table(n))
    params = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
    amps = sv.new_zero_state(n).amplitudes
    for op in vq.ansatz_ops(ansatz, params):
        amps = _gather_apply(amps, n, op)
    compiled = vq.compile_ansatz(ansatz)(params)
    # the compiled mixer is one matmul per qubit group where the gates go qubit by qubit
    assert np.max(np.abs(np.abs(compiled) ** 2 - np.abs(amps) ** 2)) <= 1e-14
