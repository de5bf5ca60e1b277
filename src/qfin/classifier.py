"""Variational quantum classification with quantum-enhanced feature maps.

A record is embedded by alternating Hadamard layers with a diagonal phase
whose coefficients carry the (scaled) features; a trainable RX+RY separator
follows, and the decision is the expectation of a +/-1 readout (parity by
default) plus a bias. Discrete features can be packed three bits per qubit
with the (3,1) quantum random access code. Classical baselines are
gradient-trained logistic regression and a linear hinge classifier.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .optimizers import OptimizerConfig, minimize
from .simulator import (
    GateOp,
    Statevector,
    apply_ops,
    basis_probabilities,
    h,
    new_zero_state,
    phase_gate,
    ry,
    rz,
)
from .variational import ansatz_ops, rxry_ansatz

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# feature map


def default_coefficients(x: np.ndarray) -> dict[tuple[int, ...], float]:
    """Second-order expansion: phi_i = x_i and phi_ij = (pi - x_i)(pi - x_j)."""
    coeffs: dict[tuple[int, ...], float] = {}
    d = x.size
    for i in range(d):
        coeffs[(i,)] = float(x[i])
    for i in range(d):
        for j in range(i + 1, d):
            coeffs[(i, j)] = float((math.pi - x[i]) * (math.pi - x[j]))
    return coeffs


@dataclass(frozen=True)
class FeatureMap:
    """Repetitions of U_phi H^n with U_phi = exp(i sum_S phi_S(x) prod_S Z)."""

    n_qubits: int
    repetitions: int = 2
    coefficient_fn: object = None  # callable x -> {subset: phase}; None = defaults

    def coefficients(self, x: np.ndarray) -> dict[tuple[int, ...], float]:
        fn = self.coefficient_fn or default_coefficients
        return fn(np.asarray(x, dtype=float))


def feature_map_ops(fmap: FeatureMap, x) -> list[GateOp]:
    x = np.asarray(x, dtype=float)
    if x.size != fmap.n_qubits:
        raise ValueError(f"feature map expects {fmap.n_qubits} features, got {x.size}")
    coeffs = fmap.coefficients(x)
    ops: list[GateOp] = []
    for _ in range(fmap.repetitions):
        ops.extend(h(q) for q in range(fmap.n_qubits))
        for subset, phi in sorted(coeffs.items()):
            if phi == 0.0:
                continue
            width = len(subset)
            phases = []
            for sub in range(1 << width):
                sign = 1.0
                for bit in range(width):
                    if (sub >> bit) & 1:
                        sign = -sign
                phases.append(phi * sign)
            ops.append(phase_gate(subset, phases))
    return ops


def feature_state(fmap: FeatureMap, x) -> Statevector:
    return apply_ops(new_zero_state(fmap.n_qubits), feature_map_ops(fmap, x))


# ---------------------------------------------------------------------------
# QRAC encoding of discrete bits


def qrac_bloch(bits) -> np.ndarray:
    """Bloch vector ((-1)^b1, (-1)^b2, (-1)^b3)/sqrt(3) of the (3,1) code."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != 3 or any(b not in (0, 1) for b in bits):
        raise ValueError("QRAC blocks take exactly three bits")
    return np.array([(-1.0) ** b for b in bits]) / math.sqrt(3.0)


def qrac_encode_block(bits, qubit: int = 0) -> list[GateOp]:
    """Gates preparing the pure state at the block's Bloch vector from |0>."""
    bx, by, bz = qrac_bloch(bits)
    theta = math.acos(bz)
    phi = math.atan2(by, bx)
    return [ry(theta, qubit), rz(phi, qubit)]


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
_ZIP_CODES = tuple(range(10))
_MCC_CODES = tuple(range(10))


def synthesize_transactions(n_records: int, seed: int) -> LabeledDataset:
    """Seeded purchase records over the five-feature transaction schema.

    Fraud (label -1) follows a planted rule mixing a large amount with a
    risky method or a night-time risky merchant code, plus a little label
    noise so the classes are never perfectly separable.
    """
    if n_records < 1:
        raise ValueError("n_records must be >= 1")
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
    return LabeledDataset(
        continuous=np.column_stack([hours, amounts]),
        categorical=np.column_stack([methods, zips, mccs]),
        labels=labels,
        continuous_names=TRANSACTION_CONTINUOUS,
        categorical_names=TRANSACTION_CATEGORICAL,
        vocab_sizes=TRANSACTION_VOCABS,
    )


def export_csv(path, dataset: LabeledDataset) -> None:
    names = list(dataset.continuous_names) + list(dataset.categorical_names)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["label"])
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.continuous[i]]
            row += [int(v) for v in dataset.categorical[i]]
            row.append(int(dataset.labels[i]))
            writer.writerow(row)


def ingest_csv(path, continuous_names=TRANSACTION_CONTINUOUS,
               categorical_names=TRANSACTION_CATEGORICAL,
               vocab_sizes=TRANSACTION_VOCABS) -> LabeledDataset:
    """Read a dataset CSV, validating the schema; bad rows report line numbers."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = list(continuous_names) + list(categorical_names) + ["label"]
        if header != expected:
            raise ValueError(f"dataset header must be {','.join(expected)}")
        cont, cat, labels = [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise ValueError(f"wrong field count at line {line_no}")
            try:
                nc = len(continuous_names)
                cont.append([float(v) for v in row[:nc]])
                codes = [int(v) for v in row[nc:-1]]
                for code, vocab in zip(codes, vocab_sizes):
                    if not 0 <= code < vocab:
                        raise ValueError(f"categorical code {code} outside vocabulary")
                cat.append(codes)
                label = int(row[-1])
                if label not in (-1, 1):
                    raise ValueError("label must be -1 or 1")
                labels.append(label)
            except ValueError as exc:
                raise ValueError(f"bad record at line {line_no}: {exc}") from exc
    if not labels:
        raise ValueError("dataset is empty")
    return LabeledDataset(np.array(cont), np.array(cat, dtype=int), np.array(labels),
                          tuple(continuous_names), tuple(categorical_names),
                          tuple(vocab_sizes))


def synthesize_separable(n_records: int, seed: int, n_features: int = 2,
                         margin: float = 0.1,
                         model_config: "ModelConfig | None" = None) -> LabeledDataset:
    """Points labeled by a fixed random model's own sign with the given margin.

    The reference model reads the points through the same min-max scaler that
    training will fit on the finished dataset, so the labels stay exactly
    representable: low-margin points are resampled and the scaler refit until
    every record clears the margin under the final scaling. The reference
    decision values lie in [-1, 1], so the margin must lie in [0, 1).
    """
    if not 0.0 <= margin < 1.0:
        raise ValueError("margin must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    config = model_config or ModelConfig(n_qubits=n_features)
    theta_star = rng.uniform(-math.pi, math.pi, size=separator_parameter_count(config))
    points = rng.uniform(0.0, TWO_PI, size=(n_records, n_features))
    values = np.zeros(n_records)
    for _ in range(500):
        reference = _assemble_model(config, theta_star, bias=0.0,
                                    scaler=fit_scaler(points))
        values = np.array([decision(reference, x) for x in points])
        weak = np.abs(values) < margin
        if not weak.any():
            break
        points[weak] = rng.uniform(0.0, TWO_PI, size=(int(weak.sum()), n_features))
    else:
        raise ValueError(f"could not draw {n_records} points clearing margin {margin}")
    labels = np.where(values > 0, 1, -1)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    return LabeledDataset(points, np.zeros((n_records, 0), dtype=int),
                          labels, tuple(f"x{i}" for i in range(n_features)), (), ())


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
                        qrac_features=None, repetitions: int = 2,
                        separator_layers: int = 1, latent_qubits: int = 0) -> ModelConfig:
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
    bits = sum(v for name, v in zip(categorical_names, vocab_sizes)
               if name in qrac_features)
    n_qrac = (bits + 2) // 3 if bits else 0
    n_map = len(continuous_names) + sum(1 for name in categorical_names
                                        if name not in qrac_features)
    return ModelConfig(
        n_qubits=n_qrac + n_map + latent_qubits,
        repetitions=repetitions,
        separator_layers=separator_layers,
        qrac_features=qrac_features,
        latent_qubits=latent_qubits,
        continuous_names=tuple(continuous_names),
        categorical_names=categorical_names,
        vocab_sizes=vocab_sizes,
    )


def separator_parameter_count(config: ModelConfig) -> int:
    return rxry_ansatz(config.n_qubits, config.separator_layers).parameter_count


def parity_readout(n_qubits: int) -> np.ndarray:
    """+1 on even-parity basis states, -1 on odd."""
    idx = np.arange(1 << n_qubits)
    parity = np.zeros(idx.shape, dtype=int)
    for q in range(n_qubits):
        parity ^= (idx >> q) & 1
    return 1.0 - 2.0 * parity


@dataclass(frozen=True)
class VqcModel:
    config: ModelConfig
    theta: np.ndarray
    bias: float
    scaler_low: np.ndarray
    scaler_high: np.ndarray
    readout: np.ndarray | None = None  # None = parity

    def readout_table(self) -> np.ndarray:
        if self.readout is not None:
            return self.readout
        return parity_readout(self.config.n_qubits)


def _assemble_model(config: ModelConfig, theta, bias, scaler) -> VqcModel:
    return VqcModel(config=config, theta=np.asarray(theta, dtype=float),
                    bias=float(bias), scaler_low=np.asarray(scaler[0], dtype=float),
                    scaler_high=np.asarray(scaler[1], dtype=float))


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


def _map_inputs(model: VqcModel, continuous, categorical) -> tuple[np.ndarray, list[int]]:
    """Split a record into feature-map values (scaled) and QRAC bit list."""
    config = model.config
    qrac_bits: list[int] = []
    map_raw: list[float] = list(np.asarray(continuous, dtype=float))
    for name, vocab, code in zip(config.categorical_names, config.vocab_sizes,
                                 np.asarray(categorical, dtype=int)):
        if name in config.qrac_features:
            onehot = [1 if code == v else 0 for v in range(vocab)]
            qrac_bits.extend(onehot)
        else:
            map_raw.append(float(code))
    values = np.asarray(map_raw, dtype=float)
    if values.size != config.n_map_qubits:
        raise ValueError(
            f"record supplies {values.size} map features, model expects {config.n_map_qubits}")
    return scale_features(values, model.scaler_low, model.scaler_high), qrac_bits


def model_state(model: VqcModel, continuous, categorical=()) -> Statevector:
    """Feature-map + QRAC preparation followed by the separator."""
    config = model.config
    mapped, qrac_bits = _map_inputs(model, continuous, categorical)
    ops: list[GateOp] = []
    if config.n_map_qubits:
        fmap = FeatureMap(config.n_map_qubits, config.repetitions)
        ops.extend(feature_map_ops(fmap, mapped))
    base = config.n_map_qubits
    for block_start in range(0, len(qrac_bits), 3):
        block = qrac_bits[block_start:block_start + 3]
        block += [0] * (3 - len(block))
        ops.extend(qrac_encode_block(block, qubit=base + block_start // 3))
    separator = rxry_ansatz(config.n_qubits, config.separator_layers)
    ops.extend(ansatz_ops(separator, model.theta))
    return apply_ops(new_zero_state(config.n_qubits), ops)


def decision(model: VqcModel, continuous, categorical=()) -> float:
    """f(x): expectation of the +/-1 readout after the separator, plus bias."""
    state = model_state(model, continuous, categorical)
    return float(basis_probabilities(state) @ model.readout_table()) + model.bias


def predict(model: VqcModel, continuous, categorical=()) -> int:
    return 1 if decision(model, continuous, categorical) >= 0.0 else -1


def decisions(model: VqcModel, dataset: LabeledDataset) -> np.ndarray:
    return np.array([decision(model, dataset.continuous[i], dataset.categorical[i])
                     for i in range(len(dataset))])


def accuracy(model: VqcModel, dataset: LabeledDataset) -> float:
    values = decisions(model, dataset)
    predicted = np.where(values >= 0.0, 1, -1)
    return float(np.mean(predicted == dataset.labels))


RISK_FORMS = ("absolute", "cross-entropy")


def empirical_risk(model: VqcModel, dataset: LabeledDataset,
                   form: str = "absolute") -> float:
    if form not in RISK_FORMS:
        raise ValueError(f"risk form must be one of {RISK_FORMS}")
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    values = decisions(model, dataset)
    return _risk_of_values(values, dataset.labels, form)


def _risk_of_values(values: np.ndarray, labels: np.ndarray, form: str) -> float:
    if form == "absolute":
        return float(np.mean(np.abs(values - labels)))
    prob = 1.0 / (1.0 + np.exp(-values))  # logistic squashing, unit steepness
    prob = np.clip(prob, 1e-12, 1.0 - 1e-12)
    positive = labels > 0
    return float(-np.mean(np.where(positive, np.log(prob), np.log(1.0 - prob))))


def train(dataset: LabeledDataset, config: ModelConfig, optimizer: OptimizerConfig,
          form: str = "cross-entropy") -> tuple[VqcModel, list[float]]:
    """Optimize the separator angles and bias against the chosen risk.

    Continuous features are min-max scaled onto [0, 2 pi]; the scaler is
    stored on the model. Returns the trained model and the loss trace.
    """
    if form not in RISK_FORMS:
        raise ValueError(f"risk form must be one of {RISK_FORMS}")
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    map_columns = _map_feature_matrix(dataset, config)
    scaler = fit_scaler(map_columns)
    n_params = separator_parameter_count(config)

    def build(params):
        return _assemble_model(config, params[:n_params], params[n_params], scaler)

    def objective(params):
        model = build(params)
        return _risk_of_values(decisions(model, dataset), dataset.labels, form)

    master = np.random.SeedSequence(optimizer.seed)
    best = None
    for child in master.spawn(optimizer.restarts):
        rng = np.random.default_rng(child)
        x0 = np.concatenate([rng.uniform(-math.pi, math.pi, size=n_params), [0.0]])
        outcome = minimize(objective, x0, optimizer, rng=rng)
        if best is None or outcome.value < best.value:
            best = outcome
    return build(best.x), best.trace


def _map_feature_matrix(dataset: LabeledDataset, config: ModelConfig) -> np.ndarray:
    columns = [dataset.continuous]
    for idx, name in enumerate(dataset.categorical_names):
        if name not in config.qrac_features:
            columns.append(dataset.categorical[:, idx:idx + 1].astype(float))
    return np.hstack(columns) if columns else np.zeros((len(dataset), 0))


def save_model(path, model: VqcModel, provenance: dict | None = None) -> None:
    """Persist the architecture, scaler, parameters, and optional seed provenance."""
    payload = {
        "config": {
            "n_qubits": model.config.n_qubits,
            "repetitions": model.config.repetitions,
            "separator_layers": model.config.separator_layers,
            "qrac_features": list(model.config.qrac_features),
            "latent_qubits": model.config.latent_qubits,
            "continuous_names": list(model.config.continuous_names),
            "categorical_names": list(model.config.categorical_names),
            "vocab_sizes": list(model.config.vocab_sizes),
        },
        "theta": [float(v) for v in model.theta],
        "bias": model.bias,
        "scaler_low": [float(v) for v in model.scaler_low],
        "scaler_high": [float(v) for v in model.scaler_high],
        "provenance": provenance or {},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> VqcModel:
    with open(path) as fh:
        payload = json.load(fh)
    cfg = payload["config"]
    config = ModelConfig(
        n_qubits=cfg["n_qubits"], repetitions=cfg["repetitions"],
        separator_layers=cfg["separator_layers"],
        qrac_features=tuple(cfg["qrac_features"]),
        latent_qubits=cfg["latent_qubits"],
        continuous_names=tuple(cfg["continuous_names"]),
        categorical_names=tuple(cfg["categorical_names"]),
        vocab_sizes=tuple(cfg["vocab_sizes"]),
    )
    return VqcModel(config=config, theta=np.array(payload["theta"]),
                    bias=payload["bias"], scaler_low=np.array(payload["scaler_low"]),
                    scaler_high=np.array(payload["scaler_high"]))


# ---------------------------------------------------------------------------
# classical baselines and cross-validation


def _baseline_features(dataset: LabeledDataset) -> np.ndarray:
    """Continuous columns scaled to [0, 1] plus one-hot categoricals."""
    blocks = []
    if dataset.continuous.size:
        low, high = fit_scaler(dataset.continuous)
        blocks.append((dataset.continuous - low) / (high - low))
    for idx, vocab in enumerate(dataset.vocab_sizes):
        codes = dataset.categorical[:, idx]
        onehot = np.zeros((len(dataset), vocab))
        onehot[np.arange(len(dataset)), codes] = 1.0
        blocks.append(onehot)
    if not blocks:
        return np.zeros((len(dataset), 0))
    return np.hstack(blocks)


def _train_logistic(features, labels, epochs=400, lr=0.5):
    w = np.zeros(features.shape[1] + 1)
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    target = (labels + 1) / 2.0
    for _ in range(epochs):
        prob = 1.0 / (1.0 + np.exp(-design @ w))
        w -= lr * design.T @ (prob - target) / len(labels)
    return lambda feats: np.where(
        np.hstack([feats, np.ones((feats.shape[0], 1))]) @ w >= 0.0, 1, -1)


def _train_hinge(features, labels, epochs=400, lr=0.2, l2=1e-3):
    w = np.zeros(features.shape[1] + 1)
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    for _ in range(epochs):
        margins = labels * (design @ w)
        active = margins < 1.0
        grad = l2 * w - (labels[active, None] * design[active]).sum(axis=0) / len(labels)
        w -= lr * grad
    return lambda feats: np.where(
        np.hstack([feats, np.ones((feats.shape[0], 1))]) @ w >= 0.0, 1, -1)


BASELINES = {"logistic-regression": _train_logistic, "linear-hinge": _train_hinge}


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


def cross_validate(trainer, dataset: LabeledDataset, k: int = 5,
                   seed: int = 0) -> dict[str, float]:
    """Stratified k-fold; ``trainer(train_set) -> (predict_fn, train_accuracy)``.

    Returns mean and standard deviation of train and test accuracy.
    """
    folds = stratified_folds(dataset.labels, k, seed)
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


def _baseline_trainer(kind: str):
    fit = BASELINES[kind]

    def trainer(train_set: LabeledDataset):
        features = _baseline_features(train_set)
        model = fit(features, train_set.labels)
        train_acc = float(np.mean(model(features) == train_set.labels))

        def predict_fn(test_set: LabeledDataset):
            return model(_baseline_features_like(train_set, test_set))

        return predict_fn, train_acc

    return trainer


def _baseline_features_like(reference: LabeledDataset, new: LabeledDataset) -> np.ndarray:
    blocks = []
    if reference.continuous.size:
        low, high = fit_scaler(reference.continuous)
        blocks.append((new.continuous - low) / (high - low))
    for idx, vocab in enumerate(reference.vocab_sizes):
        codes = new.categorical[:, idx]
        onehot = np.zeros((len(new), vocab))
        onehot[np.arange(len(new)), codes] = 1.0
        blocks.append(onehot)
    if not blocks:
        return np.zeros((len(new), 0))
    return np.hstack(blocks)


def classical_baselines(dataset: LabeledDataset, k: int = 5, seed: int = 0) -> dict[str, dict[str, float]]:
    """Cross-validated accuracy table for the shipped classical methods."""
    return {kind: cross_validate(_baseline_trainer(kind), dataset, k=k, seed=seed)
            for kind in BASELINES}
