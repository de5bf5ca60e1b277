"""Variational quantum classification with quantum-enhanced feature maps.

A record is embedded by alternating Hadamard layers with a diagonal phase
whose coefficients carry the (scaled) features; a trainable RX+RY separator
follows, and the decision is the expectation of the +/-1 parity readout
plus a bias. Discrete features can be packed three bits per qubit
with the (3,1) quantum random access code. Classical baselines are
gradient-trained logistic regression and a linear hinge classifier.

The encoded state of a record (feature map plus QRAC) does not depend on the
separator angles, so a dataset is encoded once into the columns of one
batched statevector, with no gate built. The feature map's U_phi is one
diagonal per record, exp(i sum_S phi_S prod_S Z), whose phases the doubling
of QUBO brute force (``qubo.QuadraticEnumeration``) tables for all records,
multiplied in after each Hadamard layer; each QRAC qubit is set to its Bloch
state as a product-state factor. The separator's plan (``compile_ansatz``)
then holds that block for as long as the dataset is scored, and each
training objective call copies its parameter row in and runs only the
separator, the parity readout and the risk, in held buffers, with one
parameter row for every record. ``decision`` and ``model_state``
keep the per-record gate-list path, which the batched one agrees with to
round-off; the tests use it as the oracle.
"""

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from . import inputs
from .optimizers import OptimizerConfig, minimize_restarts
from .simulator import (
    MAX_QUBITS,
    CapacityError,
    GateOp,
    Statevector,
    apply_1q_inplace,
    apply_ops,
    basis_probabilities,
    h,
    new_zero_state,
    parity_signs,
    phase_gate,
    ry,
    rz,
)
from .qubo import QuadraticEnumeration
from .variational import ansatz_ops, compile_ansatz, rxry_ansatz

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# feature map


def default_coefficients(x: np.ndarray) -> dict[tuple[int, ...], float]:
    """Second-order expansion: phi_i = x_i and phi_ij = (pi - x_i)(pi - x_j).

    ``x`` may also be a ``(d, records)`` array, one column per record; each
    phase is then the row of its per-record values.
    """
    coeffs: dict[tuple[int, ...], float] = {}
    d = len(x)
    for i in range(d):
        coeffs[(i,)] = x[i]
    for i in range(d):
        for j in range(i + 1, d):
            coeffs[(i, j)] = (math.pi - x[i]) * (math.pi - x[j])
    return coeffs


def _phase_block(mapped: np.ndarray) -> np.ndarray:
    """U_phi's phases sum_S phi_S prod_S z of each record (a row of ``mapped``) as a
    ``(2^n, records)`` view. With z_q = 1 - 2 x_q for bit q of the basis index, phi_i z_i
    and phi_ij z_i z_j are phi - 2 phi x_i and phi - 2 phi (x_i + x_j) + 4 phi x_i x_j:
    a QUBO in x per record, whose energies ``QuadraticEnumeration`` doubles out."""
    records, n = mapped.shape
    quadratic, linear, constant = np.zeros((records, n, n)), np.zeros((records, n)), 0.0
    for support, phi in default_coefficients(mapped.T).items():
        constant = constant + phi
        for q in support:
            linear[:, q] -= 2.0 * phi
        if len(support) == 2:
            quadratic[:, support[0], support[1]] = 4.0 * phi
    return QuadraticEnumeration(quadratic).energies(linear, constant[:, None]).T


def feature_map_ops(n_qubits: int, repetitions: int, x) -> list[GateOp]:
    """Repetitions of U_phi H^n with U_phi = exp(i sum_S phi_S(x) prod_S Z).

    The phases are ``default_coefficients(x)``; a zero phase's gate is left out.
    """
    x = np.asarray(x, dtype=float)
    if x.size != n_qubits:
        raise ValueError(f"feature map expects {n_qubits} features, got {x.size}")
    coeffs = default_coefficients(x)
    ops: list[GateOp] = []
    for _ in range(repetitions):
        ops.extend(h(q) for q in range(n_qubits))
        for subset, phi in sorted(coeffs.items()):
            if phi == 0.0:
                continue
            ops.append(phase_gate(subset, phi * parity_signs(len(subset))))
    return ops


# ---------------------------------------------------------------------------
# QRAC encoding of discrete bits


def qrac_bloch(bits) -> np.ndarray:
    """Bloch vector ((-1)^b1, (-1)^b2, (-1)^b3)/sqrt(3) of the (3,1) code."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != 3 or any(b not in (0, 1) for b in bits):
        raise ValueError("QRAC blocks take exactly three bits")
    return np.array([(-1.0) ** b for b in bits]) / math.sqrt(3.0)


def _qrac_angles(bits) -> tuple[float, float]:
    """Polar and azimuthal angles of the block's Bloch vector."""
    bx, by, bz = qrac_bloch(bits)
    return math.acos(bz), math.atan2(by, bx)


def qrac_encode_block(bits, qubit: int = 0) -> list[GateOp]:
    """Gates preparing the pure state at the block's Bloch vector from |0>."""
    theta, phi = _qrac_angles(bits)
    return [ry(theta, qubit), rz(phi, qubit)]


def _qrac_state(bits) -> tuple[complex, complex]:
    """``qrac_encode_block``'s state: cos(theta/2) e^{-i phi/2}, sin(theta/2) e^{i phi/2}."""
    theta, phi = _qrac_angles(bits)
    return (math.cos(0.5 * theta) * np.exp(-0.5j * phi),
            math.sin(0.5 * theta) * np.exp(0.5j * phi))


QRAC_RECOVERY_PROBABILITY = 0.5 + 0.5 / math.sqrt(3.0)


# ---------------------------------------------------------------------------
# dataset


@dataclass(frozen=True)
class LabeledDataset:
    """Records of (continuous features, categorical codes, label in {-1, +1})."""

    continuous: np.ndarray          # (records, n_continuous)
    categorical: np.ndarray         # (records, n_categorical) integer codes
    labels: np.ndarray              # (records,) of -1/+1
    continuous_names: tuple[str, ...] = ()
    categorical_names: tuple[str, ...] = ()
    vocab_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.labels.ndim != 1:
            raise ValueError("labels must be a vector")
        if not set(np.unique(self.labels)) <= {-1, 1}:
            raise ValueError("labels must be -1 or +1")
        if self.continuous.shape[0] != self.labels.size \
                or self.categorical.shape[0] != self.labels.size:
            raise ValueError("records must share one schema")

    def __len__(self) -> int:
        return self.labels.size

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices)
        return LabeledDataset(self.continuous[idx], self.categorical[idx],
                              self.labels[idx], self.continuous_names,
                              self.categorical_names, self.vocab_sizes)


TRANSACTION_CONTINUOUS = ("time", "amount")
TRANSACTION_CATEGORICAL = ("method", "zip", "mcc")
TRANSACTION_VOCABS = (3, 10, 10)
MAX_RECORDS = 1_000_000  # most records either synthesizer (``ml synth --n``) writes
SEPARABLE_FEATURES = 2  # features, one qubit each, of ``synthesize_separable``'s points
REFERENCE_DRAWS = 10  # most reference models ``synthesize_separable`` draws
# records per chunk of ``dataset_csv``: formatted in one block, a 10^6-record
# ``ml synth`` peaks at 476 MiB; in chunks of 2^14, at the 131 MiB of a row loop
DATASET_CHUNK_ROWS = 1 << 14


def _check_record_count(n_records: int) -> None:
    if not 1 <= n_records <= MAX_RECORDS:
        raise ValueError(f"n_records must lie in [1, {MAX_RECORDS}]")


def synthesize_transactions(n_records: int, seed: int) -> LabeledDataset:
    """Seeded purchase records over the five-feature transaction schema.

    Fraud (label -1) follows a planted rule mixing a large amount with a
    risky method or a night-time risky merchant code, plus a little label
    noise so the classes are never perfectly separable.
    """
    _check_record_count(n_records)
    rng = np.random.default_rng(seed)
    hours = np.round(rng.uniform(0.0, 24.0, size=n_records), 3)
    amounts = np.round(np.exp(rng.normal(3.0, 1.0, size=n_records)), 2)
    methods = rng.integers(0, 3, size=n_records)
    zips = rng.integers(0, 10, size=n_records)
    mccs = rng.integers(0, 10, size=n_records)
    night = (hours < 6.0) | (hours > 22.0)
    risky_mcc = (mccs == 7) | (mccs == 9)
    fraud = ((amounts >= np.quantile(amounts, 0.7)) & (methods == 2)) | (night & risky_mcc)
    labels = np.where(fraud, -1, 1)
    flip = rng.random(n_records) < 0.03
    labels[flip] *= -1
    if np.all(labels == labels[0]):  # force both classes to appear
        labels[0] = -labels[0]
    return LabeledDataset(
        continuous=np.column_stack([hours, amounts]),
        categorical=np.column_stack([methods, zips, mccs]),
        labels=labels,
        continuous_names=TRANSACTION_CONTINUOUS,
        categorical_names=TRANSACTION_CATEGORICAL,
        vocab_sizes=TRANSACTION_VOCABS,
    )


def dataset_csv(dataset: LabeledDataset):
    """The CSV text of ``dataset``, header first, in chunks of ``DATASET_CHUNK_ROWS`` records.

    The rows are formatted from ``tolist`` blocks: a Python float prints as
    ``repr`` of the float64 it came from, so the text does not depend on the
    chunking, and a large set is never held as one string.
    """
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow([*dataset.continuous_names, *dataset.categorical_names, "label"])
    for start in range(0, len(dataset), DATASET_CHUNK_ROWS):
        yield text.getvalue()
        text.seek(0)
        text.truncate()
        block = slice(start, start + DATASET_CHUNK_ROWS)
        writer.writerows(
            continuous + categorical + [label] for continuous, categorical, label in zip(
                dataset.continuous[block].astype(float).tolist(),
                dataset.categorical[block].astype(int).tolist(),
                dataset.labels[block].astype(int).tolist()))
    yield text.getvalue()


def ingest_csv(path, continuous_names=None, categorical_names=(),
               vocab_sizes=()) -> LabeledDataset:
    """Read a dataset CSV, validating the schema; a bad record is refused by its file line.

    Without ``continuous_names`` the header sets the schema: the transactions
    header means the transactions schema, and any other ``name,...,label``
    header that many continuous features. Each record needs finite continuous
    features, categorical codes inside their vocabularies and a label of -1 or 1.
    """
    cont, cat, labels = [], [], []
    with inputs.rows(path, "dataset") as rows:
        header = next(rows, None)
        if header is None:
            raise ValueError("dataset CSV has no header line")
        if continuous_names is None and header == [*TRANSACTION_CONTINUOUS,
                                                   *TRANSACTION_CATEGORICAL, "label"]:
            continuous_names, categorical_names, vocab_sizes = (
                TRANSACTION_CONTINUOUS, TRANSACTION_CATEGORICAL, TRANSACTION_VOCABS)
        elif continuous_names is None:
            continuous_names = header[:-1]
        expected = [*continuous_names, *categorical_names, "label"]
        if header != expected:
            raise ValueError(f"dataset header must be {','.join(expected)}")
        nc = len(continuous_names)
        for row in rows:
            if len(row) != len(expected):
                raise ValueError(f"expected {len(expected)} fields, got {len(row)}")
            cont.append(inputs.finite_floats(row[:nc], "continuous features"))
            codes = [int(v) for v in row[nc:-1]]
            for code, vocab in zip(codes, vocab_sizes):
                if not 0 <= code < vocab:
                    raise ValueError(f"categorical code {code} outside vocabulary")
            cat.append(codes)
            label = int(row[-1])
            if label not in (-1, 1):
                raise ValueError("label must be -1 or 1")
            labels.append(label)
    if not labels:
        raise ValueError("dataset is empty")
    return LabeledDataset(np.array(cont), np.array(cat, dtype=int), np.array(labels),
                          tuple(continuous_names), tuple(categorical_names),
                          tuple(vocab_sizes))


def synthesize_separable(n_records: int, seed: int, margin: float = 0.1) -> LabeledDataset:
    """Points labeled by a fixed random model's own sign with the given margin.

    The reference model reads the points through the same min-max scaler that
    training will fit on the finished dataset, so the labels stay exactly
    representable: low-margin points are resampled and the scaler refit until
    every record clears the margin under the final scaling. The reference
    decision values lie in [-1, 1], so the margin must lie in [0, 1). A
    reference model whose points do not clear the margin within 500 draws is
    replaced, with new points, up to REFERENCE_DRAWS models.

    The reference model is drawn from ``seed``, so a held-out set must come
    from the same draw (a split of it): a set synthesised with another seed
    is labelled by another model.
    """
    _check_record_count(n_records)
    if not 0.0 <= margin < 1.0:
        raise ValueError("margin must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    config = ModelConfig(n_qubits=SEPARABLE_FEATURES)
    no_categorical = np.zeros((n_records, 0), dtype=int)
    decider = _decider(config)
    for attempt in range(500 * REFERENCE_DRAWS):
        if attempt % 500 == 0:  # a reference model, and points to label by it
            theta_star = rng.uniform(-math.pi, math.pi, size=separator_parameter_count(config))
            points = rng.uniform(0.0, TWO_PI, size=(n_records, SEPARABLE_FEATURES))
        else:
            points[weak] = rng.uniform(0.0, TWO_PI, size=(int(weak.sum()), SEPARABLE_FEATURES))
        scaler = fit_scaler(points)
        values = decider(_encoded_block(config, scaler, points, no_categorical))(theta_star, 0.0)
        weak = np.abs(values) < margin
        if not weak.any():
            break
    else:
        raise ValueError(f"could not draw {n_records} points clearing margin {margin}")
    labels = np.where(values > 0, 1, -1)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    return LabeledDataset(points, no_categorical, labels,
                          tuple(f"x{i}" for i in range(SEPARABLE_FEATURES)), (), ())


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of a variational classifier.

    ``qrac_features`` names categorical features packed through QRAC; all
    other features flow through the feature map one qubit each.
    """

    n_qubits: int
    repetitions: int = 2
    separator_layers: int = 1
    qrac_features: tuple[str, ...] = ()
    latent_qubits: int = 0
    continuous_names: tuple[str, ...] = ()
    categorical_names: tuple[str, ...] = ()
    vocab_sizes: tuple[int, ...] = ()

    @property
    def n_map_qubits(self) -> int:
        return self.n_qubits - self.n_qrac_qubits - self.latent_qubits

    @property
    def n_qrac_qubits(self) -> int:
        bits = sum(v for name, v in zip(self.categorical_names, self.vocab_sizes)
                   if name in self.qrac_features)
        return (bits + 2) // 3 if bits else 0


def build_vqc_with_qrac(continuous_names, categorical_names, vocab_sizes,
                        qrac_features=None, separator_layers: int = 1,
                        latent_qubits: int = 0) -> ModelConfig:
    """Qubit budget: ceil(one-hot bits / 3) QRAC qubits + one per remaining feature."""
    if not continuous_names and not categorical_names:
        raise ValueError("schema must name at least one feature")
    categorical_names = tuple(categorical_names)
    vocab_sizes = tuple(vocab_sizes)
    if len(categorical_names) != len(vocab_sizes):
        raise ValueError("one vocabulary size per categorical feature")
    qrac_features = tuple(qrac_features) if qrac_features is not None else ()
    unknown = set(qrac_features) - set(categorical_names)
    if unknown:
        raise ValueError(f"unknown QRAC features {sorted(unknown)}")
    config = ModelConfig(
        n_qubits=0,
        separator_layers=separator_layers,
        qrac_features=qrac_features,
        latent_qubits=latent_qubits,
        continuous_names=tuple(continuous_names),
        categorical_names=categorical_names,
        vocab_sizes=vocab_sizes,
    )
    n_map = len(continuous_names) + sum(1 for name in categorical_names
                                        if name not in qrac_features)
    return replace(config, n_qubits=config.n_qrac_qubits + n_map + latent_qubits)


def separator_parameter_count(config: ModelConfig) -> int:
    return rxry_ansatz(config.n_qubits, config.separator_layers).parameter_count


@dataclass(frozen=True)
class VqcModel:
    config: ModelConfig
    theta: np.ndarray
    bias: float
    scaler_low: np.ndarray
    scaler_high: np.ndarray


def fit_scaler(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-max bounds mapping each column onto [0, 2 pi]."""
    if values.size == 0:
        return np.zeros(values.shape[1]), np.ones(values.shape[1])
    low = values.min(axis=0)
    high = values.max(axis=0)
    high = np.where(high - low < 1e-12, low + 1.0, high)
    return low, high


def scale_features(values: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    return TWO_PI * (values - low) / (high - low)


def _map_block(config: ModelConfig, continuous, categorical) -> tuple[np.ndarray, np.ndarray]:
    """Split records into feature-map values (unscaled) and QRAC bits.

    Returns ``(records, n_map)`` values, the continuous features and then
    each categorical code the QRAC does not pack, and ``(records, 3 *
    n_qrac)`` bits: the one-hot codes of the QRAC features, zero-padded to
    whole blocks.
    """
    codes = np.asarray(categorical, dtype=int)
    map_columns = [np.asarray(continuous, dtype=float)]
    qrac_columns = [np.zeros((len(codes), 0), dtype=int)]
    for k, (name, vocab) in enumerate(zip(config.categorical_names, config.vocab_sizes)):
        if name in config.qrac_features:
            qrac_columns.append((codes[:, k:k + 1] == np.arange(vocab)).astype(int))
        else:
            map_columns.append(codes[:, k:k + 1].astype(float))
    values = np.hstack(map_columns)
    if values.shape[1] != config.n_map_qubits:
        raise ValueError(f"records supply {values.shape[1]} map features, "
                         f"model expects {config.n_map_qubits}")
    bits = np.hstack(qrac_columns)
    return values, np.pad(bits, ((0, 0), (0, -bits.shape[1] % 3)))


def _encoding_ops(config: ModelConfig, scaler, continuous, categorical) -> list[GateOp]:
    """Feature-map + QRAC preparation of one record; independent of theta and bias."""
    values, bits = _map_block(config, [continuous], [categorical])
    ops: list[GateOp] = []
    if config.n_map_qubits:
        ops.extend(feature_map_ops(config.n_map_qubits, config.repetitions,
                                   scale_features(values[0], *scaler)))
    for k in range(0, bits.shape[1], 3):
        ops.extend(qrac_encode_block(bits[0, k:k + 3], qubit=config.n_map_qubits + k // 3))
    return ops


def model_state(model: VqcModel, continuous, categorical=()) -> Statevector:
    """Feature-map + QRAC preparation followed by the separator."""
    scaler = (model.scaler_low, model.scaler_high)
    ops = _encoding_ops(model.config, scaler, continuous, categorical)
    ops.extend(ansatz_ops(rxry_ansatz(model.config.n_qubits, model.config.separator_layers),
                          model.theta))
    return apply_ops(new_zero_state(model.config.n_qubits), ops)


def decision(model: VqcModel, continuous, categorical=()) -> float:
    """f(x): expectation of the +/-1 parity readout after the separator, plus bias."""
    probs = basis_probabilities(model_state(model, continuous, categorical))
    return float(probs @ parity_signs(model.config.n_qubits)) + model.bias


def _encoded_block(config: ModelConfig, scaler, continuous, categorical) -> np.ndarray:
    """Encoded states of the records as the columns of one ``(2^n, records)`` block.

    Column i holds the state ``apply_ops`` makes of ``_encoding_ops`` for
    record i, to round-off, with no gate built. The feature-map register
    takes the Hadamard layers through the scalar kernel, each followed by
    one multiply by U_phi, the record's diagonal exp(i sum_S phi_S prod_S Z)
    of ``_phase_block``. Each QRAC qubit then joins as a product-state
    factor in its Bloch state, and the latent qubits stay at |0>.
    """
    if config.n_qubits > MAX_QUBITS:
        raise CapacityError(f"classifier needs {config.n_qubits} qubits, ceiling {MAX_QUBITS}")
    values, bits = _map_block(config, continuous, categorical)
    mapped = scale_features(values, *scaler)
    records = len(mapped)
    block = np.zeros((1 << config.n_map_qubits, records), dtype=np.complex128)
    block[0] = 1.0
    if config.n_map_qubits:
        u_phi = np.empty_like(block)
        np.exp(np.multiply(1j, _phase_block(mapped), out=u_phi), out=u_phi)
        for _ in range(config.repetitions):
            for q in range(config.n_map_qubits):
                apply_1q_inplace(block, q, "h")
            block *= u_phi
    # the state of each of the eight code words, indexed by b1 + 2 b2 + 4 b3
    words = np.array([_qrac_state((w & 1, w >> 1 & 1, w >> 2)) for w in range(8)])
    for k in range(0, bits.shape[1], 3):
        qubit = words[bits[:, k:k + 3] @ (1, 2, 4)].T
        block = (qubit[:, None] * block).reshape(-1, records)  # the new qubit on top
    return np.pad(block, ((0, (1 << config.n_qubits) - len(block)), (0, 0)))


def _decider(config: ModelConfig):
    """``block -> decide``, and ``decide(theta, bias)`` the decision values of ``block``'s columns.

    The separator of ``config`` is compiled once, here. Its layers rotate
    every column of ``block`` at once with ``theta``'s angles, each qubit's
    RX and RY as one rotation, where ``decision``'s gates apply them in
    turn. ``decide`` holds the block in the separator's own plan
    (``records`` of ``compile_ansatz``) for as long as it is kept, so a
    call copies ``theta`` and ``bias`` in and runs arithmetic only: the
    separator, the squared magnitudes as a ``(2^n, records)`` block, the
    parity readout of all records as one ``signs @ probs`` product into a
    held vector, and the bias. It returns that vector, which the next call
    overwrites.
    """
    separate = compile_ansatz(rxry_ansatz(config.n_qubits, config.separator_layers))
    signs = parity_signs(config.n_qubits)

    def records(block):
        params, steps, _, _, probs = separate.records(block)
        values, shift = np.empty(probs.shape[1]), np.empty(())
        steps = steps + [partial(np.matmul, signs, probs, values),
                         partial(np.add, values, shift, values)]

        def decide(theta, bias):
            params[...] = theta
            shift[...] = bias
            for step in steps:
                step()
            return values
        return decide
    return records


def decisions(model: VqcModel, dataset: LabeledDataset) -> np.ndarray:
    """f(x) of every record, with the separator applied to all records in one pass."""
    scaler = (model.scaler_low, model.scaler_high)
    block = _encoded_block(model.config, scaler, dataset.continuous, dataset.categorical)
    return _decider(model.config)(block)(model.theta, model.bias)


def _labels(values: np.ndarray) -> np.ndarray:
    """The +/-1 label of each decision value; a value of 0 is +1."""
    return np.where(values >= 0.0, 1, -1)


def _accuracy_of_values(values: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(_labels(values) == labels))


def accuracy(model: VqcModel, dataset: LabeledDataset) -> float:
    return _accuracy_of_values(decisions(model, dataset), dataset.labels)


RISK_FORMS = ("absolute", "cross-entropy")


def empirical_risk(model: VqcModel, dataset: LabeledDataset,
                   form: str = "absolute") -> float:
    if form not in RISK_FORMS:
        raise ValueError(f"risk form must be one of {RISK_FORMS}")
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    return _risk(dataset.labels, form)(decisions(model, dataset))


def evaluate(model: VqcModel, dataset: LabeledDataset) -> tuple[float, float]:
    """Accuracy and absolute risk of a dataset from one pass of ``decisions``."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    values = decisions(model, dataset)
    return (_accuracy_of_values(values, dataset.labels),
            _risk(dataset.labels, "absolute")(values))


def _risk(labels: np.ndarray, form: str):
    """``values -> risk`` of decision values against ``labels``, in buffers held for them.

    The absolute risk is the mean of |value - label|. The cross-entropy
    squashes each value to prob = 1 / (1 + e^-value) (unit steepness),
    clipped to [1e-12, 1 - 1e-12], and averages -log prob over the positive
    labels and -log(1 - prob) over the others, each through one ``np.log``
    over the vector. A mean is ``add.reduce`` over the count, as ``np.mean``.
    """
    count, work = len(labels), np.empty(len(labels))
    if form == "absolute":
        targets = labels.astype(float)

        def risk(values):
            np.subtract(values, targets, out=work)
            np.abs(work, out=work)
            return float(np.add.reduce(work) / count)
        return risk
    negative, other = labels <= 0, np.empty(count)

    def risk(values):
        np.negative(values, out=work)
        np.exp(work, out=work)
        np.add(1.0, work, out=work)
        np.divide(1.0, work, out=work)
        np.maximum(work, 1e-12, out=work)  # the clip to [1e-12, 1 - 1e-12]
        np.minimum(work, 1.0 - 1e-12, out=work)
        np.subtract(1.0, work, out=other)
        np.copyto(work, other, where=negative)
        np.log(work, out=work)
        return float(-(np.add.reduce(work) / count))
    return risk


def train(dataset: LabeledDataset, config: ModelConfig, optimizer: OptimizerConfig,
          form: str = "cross-entropy") -> tuple[VqcModel, list[float], float]:
    """Optimize the separator angles and bias against the chosen risk.

    Continuous features are min-max scaled onto [0, 2 pi]; the scaler is
    stored on the model. The scaler is fixed before optimizing, so the records
    are encoded once, into the separator's plan (``_decider``), and each
    objective call applies only the separator, the readout and the risk.
    Returns the trained model, the loss trace and the training accuracy. The
    accuracy is read off the block training encoded, and equals
    ``accuracy(model, dataset)``.
    """
    if form not in RISK_FORMS:
        raise ValueError(f"risk form must be one of {RISK_FORMS}")
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    scaler = fit_scaler(_map_block(config, dataset.continuous, dataset.categorical)[0])
    n_params = separator_parameter_count(config)
    encoded = _encoded_block(config, scaler, dataset.continuous, dataset.categorical)
    decide = _decider(config)(encoded)
    del encoded  # the plan holds the records, so the encoded block is not kept beside it
    risk = _risk(dataset.labels, form)

    def objective(params):
        return risk(decide(params[:n_params], params[n_params]))

    def initial(rng):
        return np.concatenate([rng.uniform(-math.pi, math.pi, size=n_params), [0.0]])

    best = minimize_restarts(objective, initial, optimizer)
    model = VqcModel(config, best.x[:n_params], float(best.x[n_params]), *scaler)
    return model, best.trace, _accuracy_of_values(decide(model.theta, model.bias),
                                                  dataset.labels)


def vqc_fit(config: ModelConfig, optimizer: OptimizerConfig, form: str):
    """``train`` as a ``cross_validate`` learner: ``fit(train_set) -> predict``."""
    def fit(train_set: LabeledDataset):
        model = train(train_set, config, optimizer, form)[0]
        return lambda dataset: _labels(decisions(model, dataset))
    return fit


def model_payload(model: VqcModel, provenance: dict | None = None) -> dict:
    """The JSON object of a model file: architecture, scaler, parameters and provenance."""
    return {
        "config": asdict(model.config),
        "theta": [float(v) for v in model.theta],
        "bias": model.bias,
        "scaler_low": [float(v) for v in model.scaler_low],
        "scaler_high": [float(v) for v in model.scaler_high],
        "provenance": provenance or {},
    }


# The feature map runs its layers this many times per record; ``ml train``
# writes 2, and a larger value in a model file is refused.
MAX_REPETITIONS = 16
_MODEL_KEYS = ("config", "theta", "bias", "scaler_low", "scaler_high")
_CONFIG_INTS = ("n_qubits", "repetitions", "separator_layers", "latent_qubits")
_CONFIG_LISTS = ("qrac_features", "continuous_names", "categorical_names", "vocab_sizes")


def _finite_vector(values, length: int, name: str) -> np.ndarray:
    if not (isinstance(values, list) and len(values) == length
            and all(type(v) in (int, float) and math.isfinite(v) for v in values)):
        raise ValueError(f"model {name} must be a list of {length} finite numbers")
    return np.array(values, dtype=float)


def load_model(path) -> VqcModel:
    """Read a model file (``model_payload`` as JSON), checking it where it enters.

    Raises ValueError unless the file holds a JSON object with the saved
    keys, a well-typed configuration (at most ``MAX_REPETITIONS`` feature-map
    repetitions, one vocabulary size per categorical feature, and QRAC
    features among those), a finite numeric bias, and finite ``theta`` and
    scaler vectors of the lengths the configuration implies.
    """
    with open(path) as fh:
        payload = json.load(fh)
    cfg = payload.get("config") if isinstance(payload, dict) else None
    if not isinstance(cfg, dict):
        raise ValueError("model file must hold a JSON object with a config object")
    missing = [key for key in _MODEL_KEYS if key not in payload]
    missing += [f"config.{key}" for key in _CONFIG_INTS + _CONFIG_LISTS if key not in cfg]
    if missing:
        raise ValueError(f"model file lacks {', '.join(missing)}")
    if not (all(type(cfg[key]) is int and cfg[key] >= 0 for key in _CONFIG_INTS)
            and cfg["n_qubits"] >= 1 and all(type(cfg[key]) is list for key in _CONFIG_LISTS)
            and all(type(v) is str for key in _CONFIG_LISTS[:-1] for v in cfg[key])
            and all(type(v) is int and v >= 0 for v in cfg["vocab_sizes"])):
        raise ValueError("model config needs whole-number sizes and lists of names")
    if cfg["repetitions"] > MAX_REPETITIONS:
        raise ValueError(f"model repetitions must be at most {MAX_REPETITIONS}")
    if (len(cfg["vocab_sizes"]) != len(cfg["categorical_names"])
            or not set(cfg["qrac_features"]) <= set(cfg["categorical_names"])):
        raise ValueError("model config needs one vocabulary size per categorical feature "
                         "and QRAC features among them")
    config = ModelConfig(**{key: cfg[key] for key in _CONFIG_INTS},
                         **{key: tuple(cfg[key]) for key in _CONFIG_LISTS})
    bias = payload["bias"]
    if not (type(bias) in (int, float) and math.isfinite(bias)):
        raise ValueError("model bias must be a finite number")
    low = _finite_vector(payload["scaler_low"], config.n_map_qubits, "scaler_low")
    high = _finite_vector(payload["scaler_high"], config.n_map_qubits, "scaler_high")
    if not np.all(high > low):
        raise ValueError("model scaler_high must exceed scaler_low")
    theta = _finite_vector(payload["theta"], separator_parameter_count(config), "theta")
    return VqcModel(config=config, theta=theta, bias=float(bias),
                    scaler_low=low, scaler_high=high)


# ---------------------------------------------------------------------------
# classical baselines and cross-validation


# full-batch gradient descent of the two baselines
BASELINE_EPOCHS = 400
LOGISTIC_STEP = 0.5
HINGE_STEP = 0.2
HINGE_L2 = 1e-3


def _logistic_step(w, design, labels):
    prob = 1.0 / (1.0 + np.exp(-design @ w))
    return LOGISTIC_STEP * design.T @ (prob - (labels + 1) / 2.0) / len(labels)


def _hinge_step(w, design, labels):
    active = labels * (design @ w) < 1.0
    grad = HINGE_L2 * w - (labels[active, None] * design[active]).sum(axis=0) / len(labels)
    return HINGE_STEP * grad


# each baseline's descent step, w -= step(w, design, labels)
BASELINES = {"logistic-regression": _logistic_step, "linear-hinge": _hinge_step}


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Deal each class round-robin into k folds; every class must fill every fold."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (-1, 1):
        members = np.flatnonzero(labels == cls)
        if members.size and members.size < k:
            raise ValueError(f"class {cls} has fewer records than folds")
        rng.shuffle(members)
        for pos, record in enumerate(members):
            folds[pos % k].append(int(record))
    return [np.sort(np.array(f)) for f in folds]


def cross_validate(fit, dataset: LabeledDataset, k: int = 5,
                   seed: int = 0) -> dict[str, float]:
    """Stratified k-fold; ``fit(train_set) -> predict``, ``predict(dataset)`` its +/-1 labels.

    Train and test accuracy are both scored through ``predict``. Returns
    their means and standard deviations over the folds.
    """
    folds = stratified_folds(dataset.labels, k, seed)
    scores = []  # (train, test) accuracy of each fold
    for i, test_idx in enumerate(folds):
        train_set = dataset.subset(np.sort(np.concatenate(folds[:i] + folds[i + 1:])))
        test_set = dataset.subset(test_idx)
        predict = fit(train_set)
        scores.append([float(np.mean(predict(part) == part.labels))
                       for part in (train_set, test_set)])
    train_scores, test_scores = zip(*scores)
    return {
        "train_mean": float(np.mean(train_scores)),
        "train_std": float(np.std(train_scores)),
        "test_mean": float(np.mean(test_scores)),
        "test_std": float(np.std(test_scores)),
    }


def _design(reference: LabeledDataset, new: LabeledDataset) -> np.ndarray:
    """The baselines' design matrix of ``new``: its continuous features min-max
    scaled as ``reference``'s, each code one-hot, then a column of ones."""
    low, high = fit_scaler(reference.continuous)
    blocks = [(new.continuous - low) / (high - low)]
    for idx, vocab in enumerate(reference.vocab_sizes):
        onehot = np.zeros((len(new), vocab))
        onehot[np.arange(len(new)), new.categorical[:, idx]] = 1.0
        blocks.append(onehot)
    blocks.append(np.ones((len(new), 1)))
    return np.hstack(blocks)


def _fit_baseline(kind: str, train_set: LabeledDataset):
    """Baseline ``kind`` after ``BASELINE_EPOCHS`` descent steps from w = 0, as its ``predict``."""
    step, design = BASELINES[kind], _design(train_set, train_set)
    w = np.zeros(design.shape[1])
    for _ in range(BASELINE_EPOCHS):
        w -= step(w, design, train_set.labels)
    return lambda dataset: _labels(_design(train_set, dataset) @ w)


def classical_baselines(dataset: LabeledDataset, k: int = 5, seed: int = 0) -> dict[str, dict[str, float]]:
    """Cross-validated accuracy table for the shipped classical methods."""
    return {kind: cross_validate(partial(_fit_baseline, kind), dataset, k=k, seed=seed)
            for kind in BASELINES}
