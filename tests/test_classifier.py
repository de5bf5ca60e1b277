import csv
import dataclasses
import functools
import io
import math

import numpy as np
import pytest

from qfin import classifier as clf
from qfin import inputs
from qfin import simulator as sv
from qfin.optimizers import OptimizerConfig, minimize, minimize_restarts
import oracles
from oracles import feature_state, predict

TWO_Q = clf.ModelConfig(n_qubits=2, continuous_names=("a", "b"))


def export_csv(path, dataset):
    """``dataset`` as the CSV ``ml synth`` writes."""
    with open(path, "w", newline="") as fh:
        fh.writelines(clf.dataset_csv(dataset))


def save_model(path, model, provenance=None):
    """``model`` as the model file ``ml train`` writes."""
    path.write_text(inputs.json_text(clf.model_payload(model, provenance)))


def identity_scaled_model(config, theta, bias=0.0):
    d = config.n_map_qubits
    return clf.VqcModel(config, np.asarray(theta, dtype=float), bias,
                        np.zeros(d), np.full(d, 2 * math.pi))


def test_default_coefficients_pair_formula():
    x = np.array([1.0, 2.0])
    coeffs = clf.default_coefficients(x)
    assert coeffs[(0,)] == pytest.approx(1.0)
    assert coeffs[(1,)] == pytest.approx(2.0)
    assert coeffs[(0, 1)] == pytest.approx((math.pi - 1.0) * (math.pi - 2.0))
    # x = (pi, pi) kills the pair coefficient
    assert clf.default_coefficients(np.array([math.pi, math.pi]))[(0, 1)] == 0.0


@pytest.mark.parametrize("n", range(1, 11))
def test_phase_block_equals_the_z_diagonal_of_each_record(n):
    # the doubling of the map's x-form against the sum over Z parities, term
    # by term: each column within the round-off of summing the phases
    rng = np.random.default_rng(n + 90)
    for records in (1, 15, 16, 17, 200):
        mapped = rng.uniform(0.0, 2 * math.pi, size=(records, n))
        block = clf._phase_block(mapped)
        assert block.shape == (1 << n, records)
        for r in range(records):
            coeffs = clf.default_coefficients(mapped[r])
            want = sv.z_diagonal(n, sorted(coeffs.items()))
            bound = (n + 1) ** 2 * np.finfo(float).eps * sum(map(abs, coeffs.values()))
            assert np.max(np.abs(block[:, r] - want)) <= bound, (records, r)


def test_feature_state_zero_phases_returns_to_vacuum(monkeypatch):
    monkeypatch.setattr(clf, "default_coefficients", lambda x: {})
    state = feature_state(2, 2, [0.3, 0.4])
    assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_feature_state_unit_norm_and_deterministic():
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(0, 2 * math.pi, 2)
        one = feature_state(2, 2, x)
        two = feature_state(2, 2, x)
        assert abs(np.linalg.norm(one.amplitudes) - 1.0) < 1e-10
        assert np.array_equal(one.amplitudes, two.amplitudes)


def test_feature_state_dimension_mismatch():
    with pytest.raises(ValueError):
        feature_state(2, 2, [1.0])


def test_parity_readout_table():
    table = sv.parity_signs(3)
    assert table[0b000] == 1.0
    assert table[0b001] == -1.0
    assert table[0b011] == 1.0
    assert table[0b111] == -1.0


def test_decision_identity_separator_even_parity(monkeypatch):
    # zero angles keep |00>, parity is even, so f = +1
    monkeypatch.setattr(clf, "default_coefficients", lambda x: {})
    state = feature_state(2, 2, [0.0, 0.0])
    assert float(sv.basis_probabilities(state) @ sv.parity_signs(2)) \
        == pytest.approx(1.0, abs=1e-12)


def test_decision_bias_dominates_prediction():
    theta = np.random.default_rng(0).uniform(-math.pi, math.pi,
                                             clf.separator_parameter_count(TWO_Q))
    model = identity_scaled_model(TWO_Q, theta, bias=2.0)
    for x in ([0.1, 0.2], [3.0, 4.0], [6.0, 1.0]):
        assert predict(model, x) == 1


def test_decision_matches_enumeration_oracle():
    rng = np.random.default_rng(5)
    theta = rng.uniform(-math.pi, math.pi, clf.separator_parameter_count(TWO_Q))
    model = identity_scaled_model(TWO_Q, theta, bias=0.25)
    x = rng.uniform(0, 2 * math.pi, 2)
    state = clf.model_state(model, x)
    probs = sv.basis_probabilities(state)
    oracle = sum(probs[z] * (1.0 if bin(z).count("1") % 2 == 0 else -1.0)
                 for z in range(4)) + 0.25
    assert clf.decision(model, x) == pytest.approx(oracle, abs=1e-12)


def test_readout_bound_random_points():
    rng = np.random.default_rng(7)
    for _ in range(25):
        theta = rng.uniform(-math.pi, math.pi, clf.separator_parameter_count(TWO_Q))
        bias = rng.normal()
        model = identity_scaled_model(TWO_Q, theta, bias=bias)
        x = rng.uniform(0, 2 * math.pi, 2)
        assert abs(clf.decision(model, x) - bias) <= 1.0 + 1e-9


def test_empirical_risk_perfect_predictor_zero():
    data = clf.LabeledDataset(np.zeros((2, 0)), np.zeros((2, 0), dtype=int),
                              np.array([1, -1]))
    values = np.array([1.0, -1.0])
    assert clf._risk(data.labels, "absolute")(values) == 0.0


def test_empirical_risk_constant_zero_predictor():
    labels = np.array([1, -1, 1, -1])
    assert clf._risk(labels, "absolute")(np.zeros(4)) == pytest.approx(1.0)
    assert clf._risk(labels, "cross-entropy")(np.zeros(4)) \
        == pytest.approx(math.log(2.0))


def test_empirical_risk_cross_entropy_rewards_margin():
    labels = np.array([1, 1])
    low = clf._risk(labels, "cross-entropy")(np.array([0.2, 0.9]))
    high = clf._risk(labels, "cross-entropy")(np.array([0.9, 0.9]))
    assert high < low


def test_empirical_risk_validation():
    data = clf.synthesize_separable(4, seed=0)
    model, _, _ = clf.train(data, TWO_Q, OptimizerConfig(iterations=1, seed=0))
    with pytest.raises(ValueError):
        clf.empirical_risk(model, data, form="hinge")


def test_qrac_bloch_vectors():
    v = clf.qrac_bloch([0, 0, 0])
    assert np.allclose(v, np.ones(3) / math.sqrt(3))
    assert np.allclose(clf.qrac_bloch([1, 1, 1]), -v)
    assert np.allclose(clf.qrac_bloch([1, 0, 1]), np.array([-1, 1, -1]) / math.sqrt(3))


def _bloch_of(state):
    a0, a1 = state.amplitudes
    return np.array([2 * (np.conj(a0) * a1).real,
                     2 * (np.conj(a0) * a1).imag,
                     abs(a0) ** 2 - abs(a1) ** 2])


def test_qrac_states_are_pure_with_correct_bloch():
    for bits in [(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)]:
        state = sv.apply_ops(sv.new_zero_state(1), clf.qrac_encode_block(bits))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
        assert np.allclose(_bloch_of(state), clf.qrac_bloch(bits), atol=1e-12)


def test_qrac_axis_recovery_probability():
    want = 0.5 + 0.5 / math.sqrt(3.0)
    assert clf.QRAC_RECOVERY_PROBABILITY == pytest.approx(want)
    for bits in [(0, 1, 0), (1, 1, 0)]:
        state = sv.apply_ops(sv.new_zero_state(1), clf.qrac_encode_block(bits))
        bloch = _bloch_of(state)
        for axis, bit in enumerate(bits):
            recovery = 0.5 + 0.5 * ((-1.0) ** bit) * bloch[axis]
            assert recovery == pytest.approx(want, abs=1e-9)


def test_qrac_pairwise_overlaps_follow_bloch_cube():
    states = {}
    for index in range(8):
        bits = [(index >> k) & 1 for k in range(3)]
        states[index] = sv.apply_ops(sv.new_zero_state(1),
                                     clf.qrac_encode_block(bits)).amplitudes
    for a in range(8):
        for b in range(a + 1, 8):
            overlap = abs(np.vdot(states[a], states[b])) ** 2
            flips = bin(a ^ b).count("1")
            assert overlap == pytest.approx({1: 2 / 3, 2: 1 / 3, 3: 0.0}[flips],
                                            abs=1e-9)


def test_build_vqc_with_qrac_counting():
    config = clf.build_vqc_with_qrac(("time", "amount"), ("method", "zip", "mcc"),
                                     (3, 10, 10), qrac_features=("method",))
    # 3 one-hot bits -> 1 qrac qubit; 2 continuous + 2 ordinal categoricals -> 4
    assert config.n_qrac_qubits == 1
    assert config.n_map_qubits == 4
    assert config.n_qubits == 5


def test_build_vqc_without_discrete_features_reduces_to_plain():
    config = clf.build_vqc_with_qrac(("x", "y"), (), ())
    assert config.n_qrac_qubits == 0
    assert config.n_qubits == 2


def test_build_vqc_qubit_counting_rule_with_latent():
    config = clf.build_vqc_with_qrac(("x",), ("c1", "c2"), (4, 5),
                                     qrac_features=("c1", "c2"), latent_qubits=2)
    bits = 4 + 5
    assert config.n_qrac_qubits == math.ceil(bits / 3)
    assert config.n_qubits == math.ceil(bits / 3) + 1 + 2


def test_build_vqc_rejects_unknown_qrac_feature():
    with pytest.raises(ValueError):
        clf.build_vqc_with_qrac(("x",), ("c",), (3,), qrac_features=("nope",))


def test_synthesize_transactions_deterministic_with_both_labels():
    one = clf.synthesize_transactions(100, seed=7)
    two = clf.synthesize_transactions(100, seed=7)
    assert np.array_equal(one.continuous, two.continuous)
    assert np.array_equal(one.categorical, two.categorical)
    assert np.array_equal(one.labels, two.labels)
    assert (one.labels == 1).any() and (one.labels == -1).any()
    assert one.vocab_sizes == (3, 10, 10)
    assert one.categorical[:, 1].max() < 10 and one.categorical[:, 2].max() < 10


@pytest.mark.parametrize("records", [1, 2, 40, 1000])
def test_transaction_labels_equal_the_per_record_loop(records):
    # every seed at 1 record, and 7 of these 8 at 2, take the branch that
    # forces both classes to appear
    for seed in range(8):
        got = clf.synthesize_transactions(records, seed)
        want = oracles.synthesize_transactions_loop(records, seed)
        assert got.labels.dtype == want.labels.dtype
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.continuous, want.continuous)
        assert np.array_equal(got.categorical, want.categorical)


def test_transactions_csv_roundtrip_bitwise(tmp_path):
    dataset = clf.synthesize_transactions(50, seed=3)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    export_csv(path_a, dataset)
    loaded = clf.ingest_csv(path_a)
    export_csv(path_b, loaded)
    assert path_a.read_bytes() == path_b.read_bytes()


def _per_record_csv(dataset) -> str:
    """The dataset's CSV as one ``csv.writer`` row of ``repr``/``int`` fields per record."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow([*dataset.continuous_names, *dataset.categorical_names, "label"])
    for i in range(len(dataset)):
        writer.writerow([repr(float(v)) for v in dataset.continuous[i]]
                        + [int(v) for v in dataset.categorical[i]] + [int(dataset.labels[i])])
    return text.getvalue()


@pytest.mark.parametrize("records,chunk_rows", [
    (1, 1), (7, 1), (7, 3), (50, 7), (50, 1 << 14), ((1 << 14) + 3, 1 << 14)])
def test_dataset_csv_equals_the_per_record_writer_at_any_chunking(monkeypatch, records,
                                                                  chunk_rows):
    monkeypatch.setattr(clf, "DATASET_CHUNK_ROWS", chunk_rows)
    for dataset in (clf.synthesize_transactions(records, seed=records),
                    clf.synthesize_separable(min(records, 50), seed=records)):
        chunks = list(clf.dataset_csv(dataset))
        assert "".join(chunks) == _per_record_csv(dataset)
        assert len(chunks) == 1 + -(-len(dataset) // chunk_rows)
    # an integer feature column still prints as a float, a float code as an int
    odd = clf.LabeledDataset(np.array([[3], [-0]]), np.array([[2.0], [1.0]]),
                             np.array([1, -1]), ("x",), ("c",), (4,))
    assert "".join(clf.dataset_csv(odd)) == _per_record_csv(odd) == (
        "x,c,label\r\n3.0,2,1\r\n0.0,1,-1\r\n")


def test_ingest_reports_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,amount,method,zip,mcc,label\n"
                    "1.0,2.0,0,3,4,1\n"
                    "1.0,2.0,9,3,4,1\n")
    with pytest.raises(ValueError, match="line 3"):
        clf.ingest_csv(path)


def test_vqc_with_qrac_model_runs_on_transactions():
    dataset = clf.synthesize_transactions(8, seed=1)
    config = clf.build_vqc_with_qrac(dataset.continuous_names,
                                     dataset.categorical_names,
                                     dataset.vocab_sizes,
                                     qrac_features=("method",))
    assert config.n_qubits == 5
    model, trace, _ = clf.train(dataset, config,
                             OptimizerConfig(method="nelder-mead", iterations=10,
                                             seed=0))
    assert len(trace) >= 2
    assert -1.0 <= clf.decision(model, dataset.continuous[0],
                                dataset.categorical[0]) - model.bias <= 1.0


def test_train_improves_loss_on_seeded_data():
    data = clf.synthesize_separable(12, seed=5)
    _, trace, _ = clf.train(data, TWO_Q,
                         OptimizerConfig(method="nelder-mead", iterations=80, seed=0))
    assert trace[-1] < trace[0]


def test_train_reaches_accuracy_on_representable_labels():
    data = clf.synthesize_separable(20, seed=103, margin=0.3)
    model, _, _ = clf.train(data, TWO_Q,
                         OptimizerConfig(method="nelder-mead", iterations=200, seed=3))
    assert clf.accuracy(model, data) >= 0.95


def test_model_save_load_roundtrip(tmp_path):
    import json

    data = clf.synthesize_separable(8, seed=2)
    model, _, _ = clf.train(data, TWO_Q, OptimizerConfig(iterations=5, seed=1))
    path = tmp_path / "model.json"
    save_model(path, model, provenance={"seed": 1})
    assert json.loads(path.read_text())["provenance"] == {"seed": 1}
    loaded = clf.load_model(path)
    assert loaded.config == model.config
    assert np.allclose(loaded.theta, model.theta)
    assert loaded.bias == model.bias
    x = data.continuous[0]
    assert clf.decision(loaded, x) == pytest.approx(clf.decision(model, x))


def test_a_model_file_config_holds_the_checked_keys_only():
    # model_payload writes every ModelConfig field and load_model builds the
    # config from the keys it checks: the two lists must be one
    fields = [f.name for f in dataclasses.fields(clf.ModelConfig)]
    assert sorted(fields) == sorted(clf._CONFIG_INTS + clf._CONFIG_LISTS)
    model = identity_scaled_model(TWO_Q, np.zeros(clf.separator_parameter_count(TWO_Q)))
    assert sorted(clf.model_payload(model)["config"]) == sorted(fields)


def test_baselines_solve_linearly_separable_toy():
    rng = np.random.default_rng(4)
    points = rng.uniform(-1, 1, size=(40, 2))
    labels = np.where(points[:, 0] + points[:, 1] > 0, 1, -1)
    # keep a margin so the toy set is comfortably separable
    keep = np.abs(points[:, 0] + points[:, 1]) > 0.3
    data = clf.LabeledDataset(points[keep], np.zeros((keep.sum(), 0), dtype=int),
                              labels[keep], ("u", "v"), (), ())
    table = clf.classical_baselines(data, k=4, seed=0)
    for scores in table.values():
        assert scores["test_mean"] == pytest.approx(1.0)


def test_baseline_accuracies_in_unit_interval():
    data = clf.synthesize_transactions(60, seed=9)
    table = clf.classical_baselines(data, k=5, seed=1)
    for method, scores in table.items():
        for key in ("train_mean", "test_mean"):
            assert 0.0 <= scores[key] <= 1.0
        assert scores["train_std"] >= 0.0


def test_stratified_folds_cover_and_balance():
    labels = np.array([1] * 12 + [-1] * 8)
    folds = clf.stratified_folds(labels, 4, seed=0)
    all_indices = np.sort(np.concatenate(folds))
    assert np.array_equal(all_indices, np.arange(20))
    for fold in folds:
        assert (labels[fold] == 1).any() and (labels[fold] == -1).any()


def test_stratified_folds_reject_sparse_class():
    labels = np.array([1] * 10 + [-1] * 2)
    with pytest.raises(ValueError):
        clf.stratified_folds(labels, 5, seed=0)


def test_cross_validate_report_shape():
    data = clf.synthesize_transactions(40, seed=11)
    report = clf.cross_validate(functools.partial(clf._fit_baseline, "logistic-regression"),
                                data, k=4, seed=2)
    assert set(report) == {"train_mean", "train_std", "test_mean", "test_std"}


def test_cross_validate_scores_train_and_test_through_predict():
    data = clf.synthesize_transactions(40, seed=11)
    seen = []

    def fit(train_set):
        def predict(dataset):
            seen.append(len(dataset))
            return np.ones(len(dataset), dtype=int)
        return predict

    report = clf.cross_validate(fit, data, k=4, seed=2)
    folds = clf.stratified_folds(data.labels, 4, seed=2)
    assert seen == [size for fold in folds for size in (40 - len(fold), len(fold))]
    # predicting +1 everywhere scores each part's share of +1 labels
    positives = [(data.labels[fold] == 1).sum() for fold in folds]
    total = (data.labels == 1).sum()
    train = [(total - p) / (40 - len(f)) for p, f in zip(positives, folds)]
    test = [p / len(f) for p, f in zip(positives, folds)]
    assert report["train_mean"] == pytest.approx(np.mean(train), abs=1e-15)
    assert report["test_mean"] == pytest.approx(np.mean(test), abs=1e-15)
    assert report["test_std"] == pytest.approx(np.std(test), abs=1e-15)


def _cv_sets(seed):
    """A transactions set (continuous and categorical features) and a separable one (continuous only)."""
    return (clf.synthesize_transactions(40, seed), clf.synthesize_separable(40, seed))


@pytest.mark.parametrize("k", [2, 4, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_baselines_equal_the_trainer_protocol_oracle(seed, k):
    transactions, separable = _cv_sets(seed)
    codes_only = clf.LabeledDataset(
        np.zeros((len(transactions), 0)), transactions.categorical, transactions.labels,
        (), transactions.categorical_names, transactions.vocab_sizes)
    for dataset in (transactions, separable, codes_only):
        want = {kind: oracles.cross_validate(oracles.baseline_trainer(kind), dataset, k, seed)
                for kind in oracles.TRAINERS}
        assert clf.classical_baselines(dataset, k=k, seed=seed) == want


@pytest.mark.parametrize("k", [2, 4, 5])
def test_baseline_decision_values_equal_the_oracle_bitwise(monkeypatch, k):
    """Every value a baseline's predictor reads its labels off, fold by fold, in order."""
    got, want = [], []
    labels, sign = clf._labels, oracles.sign
    monkeypatch.setattr(clf, "_labels", lambda values: got.append(values) or labels(values))
    monkeypatch.setattr(oracles, "sign", lambda values: want.append(values) or sign(values))
    for dataset in _cv_sets(k):
        clf.classical_baselines(dataset, k=k, seed=k)
        for kind in oracles.TRAINERS:
            oracles.cross_validate(oracles.baseline_trainer(kind), dataset, k, k)
    assert len(got) == len(want) == 2 * 2 * 2 * k
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("k", [2, 4, 5])
@pytest.mark.parametrize("seed", [1, 2])
def test_vqc_cross_validation_equals_the_trainer_protocol_oracle(seed, k):
    optimizer = OptimizerConfig(method="nelder-mead", iterations=6, seed=seed)
    transactions, separable = _cv_sets(seed)
    for dataset, qrac in ((transactions, ("method",)), (transactions, ()), (separable, ())):
        config = clf.build_vqc_with_qrac(dataset.continuous_names, dataset.categorical_names,
                                         dataset.vocab_sizes, qrac_features=qrac)
        for form in clf.RISK_FORMS:
            got = clf.cross_validate(clf.vqc_fit(config, optimizer, form), dataset, k, seed)
            want = oracles.cross_validate(oracles.vqc_trainer(config, optimizer, form),
                                          dataset, k, seed)
            assert got == want


def _per_record_decisions(model, dataset):
    """The per-record oracle: one full circuit from |0...0> per record."""
    return np.array([clf.decision(model, dataset.continuous[i], dataset.categorical[i])
                     for i in range(len(dataset))])


def _transaction_config(encoder, layers, dataset):
    if encoder == "qrac":
        return clf.build_vqc_with_qrac(dataset.continuous_names, dataset.categorical_names,
                                       dataset.vocab_sizes, qrac_features=("method",),
                                       separator_layers=layers)
    return clf.ModelConfig(n_qubits=5, separator_layers=layers,
                           continuous_names=dataset.continuous_names,
                           categorical_names=dataset.categorical_names,
                           vocab_sizes=dataset.vocab_sizes)


# The batched encoder multiplies each record by one diagonal exp(i sum phi Z),
# where the gate path multiplies term by term: they agree to round-off.
AGREEMENT = 1e-12


@pytest.mark.parametrize("encoder", ["qrac", "map"])
@pytest.mark.parametrize("layers", [0, 1, 2])
def test_batched_decisions_equal_per_record_bitwise(encoder, layers):
    for seed in range(3):
        dataset = clf.synthesize_transactions(30, seed=seed)
        config = _transaction_config(encoder, layers, dataset)
        rng = np.random.default_rng(seed + 40)
        theta = rng.uniform(-math.pi, math.pi, clf.separator_parameter_count(config))
        values, _ = clf._map_block(config, dataset.continuous, dataset.categorical)
        scaler = clf.fit_scaler(values)
        model = clf.VqcModel(config, theta, rng.normal(), *scaler)
        assert np.abs(clf.decisions(model, dataset)
                      - _per_record_decisions(model, dataset)).max() <= AGREEMENT


@pytest.mark.parametrize("encoder", ["qrac", "map"])
@pytest.mark.parametrize("layers", [0, 1, 2])
def test_batched_decisions_with_latent_qubits_and_zero_phases(encoder, layers):
    dataset = clf.synthesize_transactions(24, seed=layers + 7)
    # a scaler onto [0, 2] makes feature value 0 the phase 0 and value 1 the
    # phase pi, which zeroes every pair term it takes part in; values in
    # [0, 2] keep every phase within pi^2, where the two paths' sums of
    # phases agree to round-off (raw amounts of several hundred would make
    # pair phases near 1e6 rad)
    values = np.random.default_rng(layers + 7)
    dataset.continuous[:] = values.uniform(0.0, 2.0, size=dataset.continuous.shape)
    dataset.categorical[:, 1:] = values.integers(0, 3, size=(len(dataset), 2))
    dataset.continuous[:3] = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]
    dataset.categorical[:3, 1:] = [[0, 0], [1, 1], [0, 1]]
    config = _transaction_config(encoder, layers, dataset)
    config = dataclasses.replace(config, n_qubits=config.n_qubits + 2, latent_qubits=2)
    rng = np.random.default_rng(layers)
    theta = rng.uniform(-math.pi, math.pi, clf.separator_parameter_count(config))
    d = config.n_map_qubits
    model = clf.VqcModel(config, theta, rng.normal(), np.zeros(d), np.full(d, 2.0))
    every_gate = config.repetitions * (2 * d + d * (d - 1) // 2) + 2 * config.n_qrac_qubits
    for i in range(3):  # each of these records skips some zero-phase gates
        assert len(clf._encoding_ops(config, (model.scaler_low, model.scaler_high),
                                     dataset.continuous[i], dataset.categorical[i])) < every_gate
    assert np.abs(clf.decisions(model, dataset)
                  - _per_record_decisions(model, dataset)).max() <= AGREEMENT


def test_batched_decisions_of_empty_dataset():
    model = identity_scaled_model(TWO_Q, np.zeros(clf.separator_parameter_count(TWO_Q)))
    empty = clf.synthesize_separable(6, seed=1).subset(np.array([], dtype=int))
    assert clf.decisions(model, empty).shape == (0,)


def _per_record_train(dataset, config, optimizer, form, evaluated=None):
    """``train`` with every record re-simulated from |0...0> on every objective call.

    Each point evaluated is appended to ``evaluated``, with its value, when
    it is given.
    """
    values, _ = clf._map_block(config, dataset.continuous, dataset.categorical)
    scaler = clf.fit_scaler(values)
    n_params = clf.separator_parameter_count(config)

    def build(params):
        return clf.VqcModel(config, params[:n_params], float(params[n_params]), *scaler)

    def objective(params):
        values = _per_record_decisions(build(params), dataset)
        value = oracles.risk_of_values(values, dataset.labels, form)
        if evaluated is not None:
            evaluated.append((np.array(params), value))
        return value

    best = None
    for child in np.random.SeedSequence(optimizer.seed).spawn(optimizer.restarts):
        rng = np.random.default_rng(child)
        x0 = np.concatenate([rng.uniform(-math.pi, math.pi, size=n_params), [0.0]])
        outcome = minimize(objective, x0, optimizer, rng=rng)
        if best is None or outcome.value < best.value:
            best = outcome
    return build(best.x), best.trace


@pytest.mark.parametrize("method,form,restarts", [
    ("nelder-mead", "cross-entropy", 1),
    ("spsa", "absolute", 2),
])
def test_train_with_cached_encoding_matches_per_record_trace(method, form, restarts,
                                                            monkeypatch):
    # The two objectives agree to round-off, so an optimizer comparison may
    # branch on a last bit: compare them at every point the per-record run
    # evaluates.
    dataset = clf.synthesize_transactions(16, seed=6)
    config = _transaction_config("qrac", 1, dataset)
    optimizer = OptimizerConfig(method=method, iterations=12, restarts=restarts, seed=2)
    objectives = []

    def keep_objective(objective, initial, optimizer):
        objectives.append(objective)
        return minimize_restarts(objective, initial, optimizer)

    with monkeypatch.context() as patch:
        patch.setattr(clf, "minimize_restarts", keep_objective)
        clf.train(dataset, config, optimizer, form=form)
    evaluated = []
    _per_record_train(dataset, config, optimizer, form, evaluated)
    assert len(evaluated) > 12
    for params, want in evaluated:
        assert abs(objectives[0](params) - want) <= AGREEMENT


def _per_record_separable(n_records, seed, n_features=2, margin=0.1):
    """``synthesize_separable`` with the reference model read one record at a time.

    Also returns how many reference models were drawn.
    """
    rng = np.random.default_rng(seed)
    config = clf.ModelConfig(n_qubits=n_features)
    for draws in range(1, clf.REFERENCE_DRAWS + 1):
        theta_star = rng.uniform(-math.pi, math.pi, size=clf.separator_parameter_count(config))
        points = rng.uniform(0.0, 2 * math.pi, size=(n_records, n_features))
        for tries in range(1, 501):
            reference = clf.VqcModel(config, theta_star, 0.0, *clf.fit_scaler(points))
            values = np.array([clf.decision(reference, x) for x in points])
            weak = np.abs(values) < margin
            if not weak.any() or tries == 500:
                break
            points[weak] = rng.uniform(0.0, 2 * math.pi, size=(int(weak.sum()), n_features))
        if not weak.any():
            break
    labels = np.where(values > 0, 1, -1)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    return points, labels, draws


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("margin", [0.1, 0.3])
def test_synthesize_separable_matches_per_record_reference(seed, margin):
    dataset = clf.synthesize_separable(40, seed, margin=margin)
    points, labels, draws = _per_record_separable(40, seed, margin=margin)
    assert np.array_equal(dataset.continuous, points)
    assert np.array_equal(dataset.labels, labels)
    assert draws == 1


def test_synthesize_separable_redraws_a_reference_that_cannot_clear_the_margin():
    # seed 43's first reference model cannot place 8 points (nor 200) 0.3
    # clear of its boundary within 500 draws
    dataset = clf.synthesize_separable(8, 43, margin=0.3)
    points, labels, draws = _per_record_separable(8, 43, margin=0.3)
    assert draws == 2
    assert np.array_equal(dataset.continuous, points)
    assert np.array_equal(dataset.labels, labels)


def test_synthesize_separable_compiles_the_separator_once(monkeypatch):
    # seed 43 makes over 500 draws under two reference models
    compiled = []
    decider = clf._decider

    def counting(config):
        compiled.append(config)
        return decider(config)

    monkeypatch.setattr(clf, "_decider", counting)
    clf.synthesize_separable(8, 43, margin=0.3)
    assert len(compiled) == 1
    clf.synthesize_separable(40, 1)
    assert len(compiled) == 2


def test_evaluate_matches_accuracy_and_absolute_risk():
    train_set = clf.synthesize_separable(12, seed=3)
    model, _, _ = clf.train(train_set, TWO_Q, OptimizerConfig(iterations=8, seed=1))
    heldout = clf.synthesize_separable(30, seed=9)
    acc, risk = clf.evaluate(model, heldout)
    assert acc == clf.accuracy(model, heldout)
    assert risk == clf.empirical_risk(model, heldout, form="absolute")
    with pytest.raises(ValueError):
        clf.evaluate(model, heldout.subset(np.array([], dtype=int)))


@pytest.mark.parametrize("encoder,seed", [("qrac", 1), ("map", 2), ("qrac", 3)])
def test_train_accuracy_equals_accuracy_of_the_trained_model(encoder, seed):
    dataset = clf.synthesize_transactions(20, seed=seed)
    config = _transaction_config(encoder, 1, dataset)
    optimizer = OptimizerConfig(method="spsa", iterations=10, seed=seed)
    model, _, train_acc = clf.train(dataset, config, optimizer)
    assert train_acc == clf.accuracy(model, dataset)


# -- records held in the separator's plan

def _unit_block(rng, n, records):
    block = rng.normal(size=(1 << n, records)) + 1j * rng.normal(size=(1 << n, records))
    return block / np.linalg.norm(block, axis=0)


def test_decisions_and_risks_equal_the_copied_path_bytewise():
    # the records stay in the separator's plan, and the readout and both risks
    # run in held buffers: every value and risk keeps the bytes of the path
    # that copied the block in and out per call, across the RECORD_COLUMNS
    # chunk boundaries, and with biases large enough to reach the clip
    rng = np.random.default_rng(81)
    for n in range(1, 9):
        for layers in (1, 2, 3):
            config = clf.ModelConfig(n_qubits=n, separator_layers=layers)
            decider, former = clf._decider(config), oracles.copied_decider(config)
            count = clf.separator_parameter_count(config)
            for records in (1, 15, 16, 17, 40, 75):
                block = _unit_block(rng, n, records)
                labels = np.where(rng.random(records) < 0.5, -1, 1)
                decide = decider(block)
                risks = {form: clf._risk(labels, form) for form in clf.RISK_FORMS}
                for scale in (1.0, 1.0, 12.0):
                    theta = rng.uniform(-math.pi, math.pi, count)
                    bias = scale * rng.uniform(-math.pi, math.pi)
                    want = former(theta, bias, block)
                    got = decide(theta, bias)
                    assert got.tobytes() == want.tobytes(), (n, layers, records)
                    for form, risk in risks.items():
                        assert repr(risk(got)) == repr(
                            oracles.risk_of_values(want, labels, form)), (n, form)


def test_two_datasets_scored_in_turn_keep_their_own_bytes():
    # a dataset's records belong to its own ``decide``, not to a plan kept by
    # block shape: 20 and 30 records both run in two chunks of 16 columns
    rng = np.random.default_rng(82)
    config = clf.ModelConfig(n_qubits=4, separator_layers=2)
    decider = clf._decider(config)
    blocks = [_unit_block(rng, 4, 20), _unit_block(rng, 4, 30)]
    thetas = rng.uniform(-math.pi, math.pi, (3, clf.separator_parameter_count(config)))
    alone = [[decider(block)(theta, 0.25).tobytes() for theta in thetas] for block in blocks]
    first, second = decider(blocks[0]), decider(blocks[1])
    for k, theta in enumerate(thetas):
        assert first(theta, 0.25).tobytes() == alone[0][k]
        assert second(theta, 0.25).tobytes() == alone[1][k]


def test_training_plans_its_records_once_and_checks_no_stack_per_call(monkeypatch):
    # an objective call copies its row into the plan and runs arithmetic: the
    # records enter the separator's plan once, and no call checks a stack
    from qfin import variational as vq

    planned, compile_ansatz = [], clf.compile_ansatz

    def counting(ansatz):
        state_of = compile_ansatz(ansatz)
        records = state_of.records
        state_of.records = lambda start: planned.append(np.shape(start)) or records(start)
        return state_of

    def refuse(*args):
        raise AssertionError("an objective call checked its stack")

    monkeypatch.setattr(clf, "compile_ansatz", counting)
    monkeypatch.setattr(vq, "_checked_stack", refuse)
    dataset = clf.synthesize_transactions(20, seed=1)
    config = _transaction_config("qrac", 1, dataset)
    clf.train(dataset, config, OptimizerConfig(method="nelder-mead", iterations=10, seed=1))
    assert planned == [(1 << config.n_qubits, 20)]


def test_an_objective_call_peaks_within_its_held_blocks():
    # 10 qubits x 200 records, in units of one complex (2^n, records) block.
    # The plan holds the records' chunks and two ping-pong buffers, each 13
    # chunks of 16 columns (1.04 blocks), and squares the magnitudes into
    # the spare one: 3.22 blocks, all of them built for the dataset. Copying
    # the block back out and squaring it into new arrays per call peaked at
    # 4.20, beside the caller's encoded block
    import tracemalloc

    n, records = 10, 200
    rng = np.random.default_rng(83)
    config = clf.ModelConfig(n_qubits=n, continuous_names=tuple(f"x{i}" for i in range(n)))
    points = rng.uniform(0.0, 1.0, (records, n))
    block = clf._encoded_block(config, clf.fit_scaler(points), points,
                               np.zeros((records, 0), dtype=int))
    labels = np.where(rng.random(records) < 0.5, -1, 1)
    theta = rng.uniform(-math.pi, math.pi, clf.separator_parameter_count(config))
    tracemalloc.start()
    try:
        decide, risk = clf._decider(config)(block), clf._risk(labels, "cross-entropy")
        risk(decide(theta, 0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.3 * (16 << n) * records
