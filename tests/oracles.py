"""Small helpers that only the tests use, kept out of the package.

Each was a public function of ``qfin`` that no command calls: a penalty
scale for QUBO tests, an unconstrained ADMM problem, an ADMM result's
per-iteration histories, a classifier's one-record prediction, the
feature-map state of one record and a state's expectation of a diagonal
observable. ``solve_auction_loop`` is the per-subset
loop that ``admm.solve_auction_exact`` replaced with subset-sum tables,
``z_sign_loop`` the sign loop that ``simulator.z_diagonal`` replaced, and
``per_call_compile_ansatz`` the state functions that
``variational.compile_ansatz`` replaced with one plan per block shape.
``synthesize_transactions_loop`` labels records one at a time, as
``classifier.synthesize_transactions`` did, and ``cross_validate`` with
``baseline_trainer`` and ``vqc_trainer`` is the cross-validation that
``classifier.cross_validate`` replaced with ``fit -> predict`` learners.
``spsa_per_iteration`` and ``nelder_mead_per_call`` are the optimizer loops
that look the objective's ``rows`` up on every stack, and SPSA drawing its
signs one iteration at a time, as ``optimizers._spsa`` and
``optimizers._nelder_mead`` did before they held their buffers for the run.
``stack_readout`` is ``vqe_minimize``'s readout before it ran inside the
plan, and ``ladder_per_cnot`` the CNOT ladder's gather index composed one
CNOT at a time over the whole index, as ``variational._ladder_permutation``
built it before it composed the n basis indices and filled by doubling.
"""

import math

import numpy as np

from qfin import admm
from qfin import classifier as clf
from qfin import optimizers as opt
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


def synthesize_transactions_loop(n_records: int, seed: int) -> clf.LabeledDataset:
    """``classifier.synthesize_transactions``, its planted rule applied record by record."""
    rng = np.random.default_rng(seed)
    hours = np.round(rng.uniform(0.0, 24.0, size=n_records), 3)
    amounts = np.round(np.exp(rng.normal(3.0, 1.0, size=n_records)), 2)
    methods = rng.integers(0, 3, size=n_records)
    zips = rng.integers(0, 10, size=n_records)
    mccs = rng.integers(0, 10, size=n_records)
    risky_mcc = {7, 9}
    labels = np.ones(n_records, dtype=int)
    big = np.quantile(amounts, 0.7)
    for i in range(n_records):
        night = hours[i] < 6.0 or hours[i] > 22.0
        if (amounts[i] >= big and methods[i] == 2) or (night and mccs[i] in risky_mcc):
            labels[i] = -1
    flip = rng.random(n_records) < 0.03
    labels[flip] *= -1
    if np.all(labels == labels[0]):  # force both classes to appear
        labels[0] = -labels[0]
    return clf.LabeledDataset(
        continuous=np.column_stack([hours, amounts]),
        categorical=np.column_stack([methods, zips, mccs]),
        labels=labels,
        continuous_names=clf.TRANSACTION_CONTINUOUS,
        categorical_names=clf.TRANSACTION_CATEGORICAL,
        vocab_sizes=clf.TRANSACTION_VOCABS,
    )


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


# -- the per-call state functions the planned ones replaced ------------------
#
# ``per_call_compile_ansatz`` is ``variational.compile_ansatz`` as it was
# before each block shape got a plan: every call builds its rotations and
# Kronecker products in new arrays, splits each layer into its qubit groups
# again (``kron_groups``) and reshapes both ping-pong buffers per group and
# layer (``rotate_layer``). It reads ``vq.GROUP_QUBITS`` when called.


def rotations(rx_angles, ry_angles) -> np.ndarray:
    """Per-qubit 2x2 matrices ``[..., q, i, j]`` = m_ij of RY(phi)·RX(theta);
    either angle array may be None, for no such gate."""
    if ry_angles is None:
        ry = np.eye(2)
    else:
        halves = 0.5 * ry_angles
        cos, sin = np.cos(halves), np.sin(halves)
        ry = np.empty(halves.shape + (2, 2))
        ry[..., 0, 0] = ry[..., 1, 1] = cos
        ry[..., 1, 0] = sin
        np.negative(sin, out=ry[..., 0, 1])
    if rx_angles is None:
        return ry
    halves = 0.5 * rx_angles
    matrices = np.empty(halves.shape + (2, 2), dtype=complex)
    np.multiply(ry, np.cos(halves)[..., None, None], out=matrices.real)
    np.multiply(ry[..., ::-1], -np.sin(halves)[..., None, None], out=matrices.imag)
    return matrices


def kron(factors: np.ndarray) -> np.ndarray:
    """Kronecker product of the ``factors[..., q, :, :]``, factor q on index bit q."""
    product = factors[..., 0, :, :]
    for q in range(1, factors.shape[-3]):
        product = (factors[..., q, :, None, :, None] * product[..., None, :, None, :]).reshape(
            product.shape[:-2] + (2 * product.shape[-2], factors.shape[-1] * product.shape[-1]))
    return product


def kron_groups(turns: np.ndarray, least: int = 2) -> list:
    """A layer of per-qubit rotations ``turns[..., q, :, :]`` as ``(low, high, matrix)``
    per balanced qubit group, low group first; the groups of one size are
    built together."""
    from qfin import variational as vq

    n = turns.shape[-3]
    count = min(n, max(least, -(-n // vq.GROUP_QUBITS)))
    small, extra = divmod(n, count)
    groups, low = [], 0
    for size, number in ((small, count - extra), (small + 1, extra)):
        if not number:
            continue
        part = turns[..., low:low + size * number, :, :]
        matrices = kron(part.reshape(part.shape[:-3] + (number, size, 2, 2)))
        groups.extend((low + j * size, low + (j + 1) * size, matrices[..., j, :, :])
                      for j in range(number))
        low += size * number
    return groups


def rotate_layer(groups, layer: int, n: int, src: np.ndarray, dst: np.ndarray):
    """Apply layer ``layer`` of ``groups`` to the ``(B, 2^n, W)`` block ``src``,
    one matmul per group from one buffer into the other; the low group is
    rows times the transposed matrix when W = 1. Returns ``(result, spare)``."""
    for low, high, matrix in groups:
        matrix = matrix[:, layer]
        shape = (len(src), 1 << (n - high), 1 << (high - low), src.shape[2] << low)
        if shape[3] == 1:
            np.matmul(src.reshape(shape[:3]), matrix.transpose(0, 2, 1),
                      out=dst.reshape(shape[:3]))
        else:
            np.matmul(matrix[:, None], src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
    return src, dst


def per_call_compile_ansatz(ansatz, table=None):
    """``compile_ansatz``'s state function, building every group and view per call."""
    from qfin import variational as vq

    n, p = ansatz.n_qubits, ansatz.depth
    dim = 1 << n
    if ansatz.kind == "qaoa":
        energies = ansatz.cost.energy_table(n) if table is None else table

        def qaoa_state(params):
            stack = vq._checked_stack(ansatz, params)
            src, dst, phases = np.empty((3, len(stack), dim, 1), dtype=complex)
            mixers = kron_groups(rotations(np.repeat(2.0 * stack[:, p:, None], n, axis=2), None))
            src.fill(math.sqrt(0.5) ** n)  # H on every qubit of |0...0>
            for level in range(p):
                np.multiply.outer(-1j * stack[:, level], energies, out=phases[:, :, 0])
                np.exp(phases, out=phases)
                src *= phases
                src, dst = rotate_layer(mixers, level, n, src, dst)
            amps = src[:, :, 0].copy().T
            return amps if np.ndim(params) == 2 else amps[:, 0]

        return qaoa_state
    perm = vq._ladder_permutation(n) if p else None
    real = ansatz.kind == "ry-full-entanglement"

    def layered_state(params, start=None):
        stack = vq._checked_stack(ansatz, params)
        layers = stack.reshape(len(stack), p + 1, -1)
        turns = (rotations(None, layers) if real
                 else rotations(layers[..., :n], layers[..., n:]))
        if start is None:
            src, dst = np.empty((2, len(stack), dim, 1), float if real else complex)
            src[:, :, 0] = kron(turns[:, 0, :, :, :1])[..., 0]  # from |0...0>
            groups, first = kron_groups(turns[:, 1:]), 1
        else:
            start = np.asarray(start)
            records, width = start.shape[1], vq.RECORD_COLUMNS
            full, rest = divmod(records, width)
            src, dst = np.empty((2, full + (rest > 0), dim, width), complex)
            grid = src.transpose(1, 0, 2)
            grid[:, :full] = start[:, :full * width].reshape(dim, full, width)
            if rest:
                grid[:, full, :rest] = start[:, full * width:]
                grid[:, full, rest:] = 0.0
            groups, first = kron_groups(turns, 1), 0
        for layer in range(first, p + 1):
            if layer:
                np.take(src, perm, axis=1, out=dst, mode="clip")
                src, dst = dst, src
            src, dst = rotate_layer(groups, layer - first, n, src, dst)
        if start is not None:
            return np.array(src.transpose(1, 0, 2)).reshape(dim, -1)[:, :records]
        amps = src[:, :, 0].copy().T
        return amps if np.ndim(params) == 2 else amps[:, 0]

    return layered_state


def stack_readout(state_of, table: np.ndarray, stack, chunk: int) -> list:
    """``vqe_minimize``'s values of ``stack`` read off the state function: each
    chunk's ``(2^n, B)`` block transposed, its magnitudes squared into a new
    array and each contiguous row dotted with ``table``."""
    stack = np.asarray(stack, dtype=float)
    values = []
    for at in range(0, len(stack), chunk):
        probs = np.abs(state_of(stack[at:at + chunk]).T)
        values += [float(row @ table) for row in np.square(probs, out=probs)]
    return values


def ladder_per_cnot(n: int) -> np.ndarray:
    """The CNOT ladder's gather index, one CNOT's map composed over all 2^n indices at a time."""
    from qfin import variational as vq

    perm = np.arange(1 << n)
    for op in reversed(vq._entangler(n)):
        control, target = op.targets
        perm ^= ((perm >> control) & 1) << target
    return perm


# -- cross-validation with ``trainer(train_set) -> (predict_fn, train_accuracy)`` --
#
# The protocol ``classifier.cross_validate`` had before its learners became
# ``fit(train_set) -> predict``: each baseline a whole trainer with its own
# design matrix and predictor, and the VQC's train accuracy the one training
# reads off its own block.


def sign(values):
    return np.where(values >= 0.0, 1, -1)


def train_logistic(features, labels):
    w = np.zeros(features.shape[1] + 1)
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    target = (labels + 1) / 2.0
    for _ in range(clf.BASELINE_EPOCHS):
        prob = 1.0 / (1.0 + np.exp(-design @ w))
        w -= clf.LOGISTIC_STEP * design.T @ (prob - target) / len(labels)
    return lambda feats: sign(np.hstack([feats, np.ones((feats.shape[0], 1))]) @ w)


def train_hinge(features, labels):
    w = np.zeros(features.shape[1] + 1)
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    for _ in range(clf.BASELINE_EPOCHS):
        margins = labels * (design @ w)
        active = margins < 1.0
        grad = clf.HINGE_L2 * w - (labels[active, None] * design[active]).sum(axis=0) / len(labels)
        w -= clf.HINGE_STEP * grad
    return lambda feats: sign(np.hstack([feats, np.ones((feats.shape[0], 1))]) @ w)


TRAINERS = {"logistic-regression": train_logistic, "linear-hinge": train_hinge}


def baseline_features_like(reference: clf.LabeledDataset, new: clf.LabeledDataset) -> np.ndarray:
    blocks = []
    if reference.continuous.size:
        low, high = clf.fit_scaler(reference.continuous)
        blocks.append((new.continuous - low) / (high - low))
    for idx, vocab in enumerate(reference.vocab_sizes):
        codes = new.categorical[:, idx]
        onehot = np.zeros((len(new), vocab))
        onehot[np.arange(len(new)), codes] = 1.0
        blocks.append(onehot)
    if not blocks:
        return np.zeros((len(new), 0))
    return np.hstack(blocks)


def baseline_trainer(kind: str):
    fit = TRAINERS[kind]

    def trainer(train_set: clf.LabeledDataset):
        features = baseline_features_like(train_set, train_set)
        model = fit(features, train_set.labels)
        train_acc = float(np.mean(model(features) == train_set.labels))

        def predict_fn(test_set: clf.LabeledDataset):
            return model(baseline_features_like(train_set, test_set))

        return predict_fn, train_acc

    return trainer


def vqc_trainer(config, optimizer, form):
    def trainer(train_set):
        m, _, train_acc = clf.train(train_set, config, optimizer, form=form)

        def predict_fn(test_set):
            return sign(clf.decisions(m, test_set))
        return predict_fn, train_acc

    return trainer


def cross_validate(trainer, dataset: clf.LabeledDataset, k: int = 5,
                   seed: int = 0) -> dict[str, float]:
    folds = clf.stratified_folds(dataset.labels, k, seed)
    train_scores, test_scores = [], []
    for fold_idx in range(k):
        test_idx = folds[fold_idx]
        train_idx = np.sort(np.concatenate([folds[i] for i in range(k) if i != fold_idx]))
        train_set = dataset.subset(train_idx)
        test_set = dataset.subset(test_idx)
        predict_fn, train_acc = trainer(train_set)
        train_scores.append(train_acc)
        test_scores.append(float(np.mean(predict_fn(test_set) == test_set.labels)))
    return {
        "train_mean": float(np.mean(train_scores)),
        "train_std": float(np.std(train_scores)),
        "test_mean": float(np.mean(test_scores)),
        "test_std": float(np.std(test_scores)),
    }


def stack_values(fn, stack: np.ndarray) -> list:
    """fn at each row of ``stack``, in row order: one ``fn.rows`` call when fn has one."""
    rows = getattr(fn, "rows", None)
    if rows is None:
        return [fn(point) for point in stack]
    return list(rows(stack))


def spsa_per_iteration(fn, x0: np.ndarray, config, rng: np.random.Generator):
    """SPSA drawing each iteration's signs and building its points afresh."""
    stability = 0.1 * config.iterations
    x = np.asarray(x0, dtype=float).copy()
    points = np.empty((3, x.size))
    trace = []
    for k in range(config.iterations):
        c_k = opt.SPSA_C / (k + 1) ** opt.SPSA_GAMMA
        delta = opt._SIGNS[rng.integers(0, 2, size=x.size)]
        step = c_k * delta
        points[0], points[1], points[2] = x, x + step, x - step
        f_x, f_plus, f_minus = stack_values(fn, points)
        if not trace or f_x < best_f:
            best_f = f_x
            best_x = x.copy()
        trace.append(best_f)
        a_k = opt.SPSA_A / (k + 1 + stability) ** opt.SPSA_ALPHA
        diff = f_plus - f_minus
        x = x - a_k * (diff / (2.0 * c_k)) * delta
    f_x = fn(x.copy())
    if f_x < best_f:
        best_f = f_x
        best_x = x.copy()
    trace.append(best_f)
    return opt.OptimizeOutcome(x=best_x, value=best_f, trace=trace,
                               evaluations=1 + 3 * config.iterations, stop_reason="maxiter")


def nelder_mead_per_call(fn, x0: np.ndarray, config):
    """The scipy-order Nelder-Mead through ``np`` functions and ``stack_values``."""
    n = x0.size
    sim = np.vstack([x0] + [x0 + opt.SIMPLEX_STEP * np.eye(n)[i] for i in range(n)])
    best_f, best_x, evaluations = None, None, 0

    def evaluate(points):
        nonlocal best_f, best_x, evaluations
        values = stack_values(fn, np.array(points))
        for params, value in zip(points, values):
            evaluations += 1
            if best_x is None or value < best_f:
                best_f = value
                best_x = params.copy()
        return values

    values = evaluate(sim)
    trace = [values[0]]
    fsim = np.array(values, dtype=float)
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    stop_reason = "maxiter"
    iterations = 1
    while iterations < config.iterations:
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-10
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12):
            stop_reason = "tolerance"
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = evaluate(xr[None])[0]
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = evaluate(xe[None])[0]
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = evaluate(xc[None])[0]
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = evaluate(xc[None])[0]
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fsim[1:] = evaluate(sim[1:])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
        trace.append(best_f)
    trace.append(best_f)
    return opt.OptimizeOutcome(x=best_x, value=best_f, trace=trace,
                               evaluations=evaluations, stop_reason=stop_reason)
