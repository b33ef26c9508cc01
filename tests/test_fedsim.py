"""Dataset handling, model families and full federated rounds."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from aggnoise.accountant import (
    ROUTES,
    WARN_APPROX_GAUSSIAN,
    CompositionMode,
    LedgerEntry,
    PrivacyParams,
    RdpCurve,
    RdpVariant,
)
from aggnoise.errors import (
    ConfigError,
    EmptyDataset,
    MalformedCsv,
    NonFinite,
    TooFewExamples,
)
from aggnoise.fedsim import (
    GlobalModel,
    MechanismConfig,
    MechanismKind,
    ModelFamily,
    Role,
    SyntheticSpec,
    UserState,
    evaluate_model,
    init_model,
    load_csv,
    make_synthetic,
    partition_equal,
    run_round,
    run_simulation,
)
from aggnoise import accountant, mechanisms
from aggnoise import spectra as spectra_module
from aggnoise.fedsim import simulation
from aggnoise.fedsim.models import ModelOps, design
from aggnoise.fedsim.secagg import SAChannel
from aggnoise.fedsim.simulation import Cohort, RoundOutcome
from aggnoise.mechanisms import SchemeKind, UpdateScheme
from aggnoise.spectra import (
    CovarianceModel,
    GradientMatrix,
    estimate_mean_cov,
    floor_coverage,
    sample_gaussian,
    sum_covariances,
)


class TestDatasets:
    def test_load_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0.5\n3.0,4.0,1.5\n")
        features, labels = load_csv(str(path))
        assert features.shape == (2, 2)
        assert np.array_equal(labels, [0.5, 1.5])

    def test_load_csv_header_flag(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n1.0,2.0,0.5\n")
        features, labels = load_csv(str(path), has_header=True)
        assert features.shape == (1, 2)
        with pytest.raises(MalformedCsv):
            load_csv(str(path), has_header=False)

    def test_load_csv_ragged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0.5\n3.0,4.0\n")
        with pytest.raises(MalformedCsv):
            load_csv(str(path))

    @pytest.mark.parametrize("content, message", [
        (b"1.0,2.0,0.5\n3.0,nan,1.5\n", "non-finite cell on line 2: 'nan'"),
        (b"1.0,2.0,0.5\n3.0,4.0,1e999\n", "non-finite cell on line 2: '1e999'"),
        (b"1.0,2.0,0.5\n3.0,4.0,1.5\n\xff,0,0\n", "undecodable byte on line 3"),
    ], ids=["nan", "overflowing_literal", "undecodable"])
    def test_load_csv_names_the_bad_line(self, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(MalformedCsv, match=message):
            load_csv(str(path))

    def test_partition_exact_division(self):
        rng = np.random.default_rng(0)
        features = np.arange(100, dtype=float).reshape(100, 1)
        labels = np.arange(100, dtype=float)
        parts = partition_equal(features, labels, 10, rng)
        assert len(parts) == 10
        assert all(f.shape[0] == 10 for f, _ in parts)
        seen = np.concatenate([f[:, 0] for f, _ in parts])
        assert len(np.unique(seen)) == 100  # disjoint

    def test_partition_drops_remainder(self, caplog):
        rng = np.random.default_rng(0)
        features = np.zeros((101, 1))
        labels = np.zeros(101)
        with caplog.at_level("WARNING"):
            parts = partition_equal(features, labels, 10, rng)
        assert sum(f.shape[0] for f, _ in parts) == 100
        assert any("remainder" in r.message for r in caplog.records)

    def test_partition_too_few(self):
        with pytest.raises(TooFewExamples):
            partition_equal(np.zeros((3, 1)), np.zeros(3), 5, np.random.default_rng(0))

    def test_synthetic_shapes_and_determinism(self):
        spec = SyntheticSpec(task="regression", features=11, per_user=400)
        users_a, eval_a, theta_a = make_synthetic(spec, 5, np.random.default_rng(42))
        users_b, eval_b, theta_b = make_synthetic(spec, 5, np.random.default_rng(42))
        assert len(users_a) == 5
        assert users_a[0][0].shape == (400, 11)
        assert np.array_equal(theta_a, theta_b)
        assert np.array_equal(users_a[3][0], users_b[3][0])
        assert np.array_equal(eval_a[1], eval_b[1])

    def test_synthetic_classification_labels(self):
        spec = SyntheticSpec(task="classification", features=4, per_user=50)
        users, _, _ = make_synthetic(spec, 3, np.random.default_rng(1))
        labels = np.concatenate([l for _, l in users])
        assert set(np.unique(labels)) <= {0.0, 1.0}


def reference_synthetic(spec, n_users, rng):
    """``make_synthetic`` as it drew each user's arrays on their own, before the shared block."""
    p = spec.features + 1
    theta_star = rng.standard_normal(p) / np.sqrt(p)

    def draw(n, mean_shift):
        features = rng.standard_normal((n, spec.features)) + mean_shift
        z = design(features) @ theta_star
        if spec.task == "regression":
            labels = z + spec.noise * rng.standard_normal(n)
        else:
            labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
        return features, labels

    users = []
    for _ in range(n_users):
        shift = np.zeros(spec.features)
        if not spec.iid:
            direction = rng.standard_normal(spec.features)
            shift = spec.shift * direction / np.linalg.norm(direction)
        users.append(draw(spec.per_user, shift))
    return users, draw(spec.eval_size, np.zeros(spec.features)), theta_star


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPartition:
    @pytest.mark.parametrize("features", [3, 100])
    @pytest.mark.parametrize("iid", [True, False], ids=["iid", "non_iid"])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_make_synthetic_draws_the_per_user_bits(self, task, iid, features):
        spec = SyntheticSpec(task=task, features=features, per_user=13, iid=iid, eval_size=9)
        rng, reference_rng = np.random.default_rng(11), np.random.default_rng(11)
        data, eval_set, theta = make_synthetic(spec, 4, rng)
        users, reference_eval, reference_theta = reference_synthetic(spec, 4, reference_rng)
        assert len(data) == 4 and data.sizes == [13] * 4
        for (feats, labels), (ref_feats, ref_labels) in zip(data, users):
            assert same_bits(feats, ref_feats) and same_bits(labels, ref_labels)
        for got, want in zip((*eval_set, theta), (*reference_eval, reference_theta)):
            assert same_bits(got, want)
        assert rng.random() == reference_rng.random()  # the stream ends where it did
        assert (data.phi[:, -1] == 1.0).all()

    def test_partition_rows_are_the_permuted_rows(self):
        source = np.random.default_rng(4)
        features, labels = source.standard_normal((103, 3)), source.standard_normal(103)
        data = partition_equal(features, labels, 10, np.random.default_rng(5))
        order = np.random.default_rng(5).permutation(103)
        assert data.sizes == [10] * 10 and data.phi.shape == (100, 4)
        for u, (feats, ys) in enumerate(data):
            rows = order[u * 10 : (u + 1) * 10]
            assert same_bits(feats, features[rows]) and same_bits(ys, labels[rows])
        assert (data.phi[:, -1] == 1.0).all()

    def test_items_are_views_of_the_block(self):
        spec = SyntheticSpec(task="regression", features=3, per_user=5)
        data, _, _ = make_synthetic(spec, 4, np.random.default_rng(0))
        feats, labels = data[-1]
        assert np.shares_memory(feats, data.phi) and np.shares_memory(labels, data.labels)
        assert same_bits(feats, data.phi[15:, :-1]) and same_bits(labels, data.labels[15:])
        assert [same_bits(f, g) for (f, _), (g, _) in zip(data[1:3], [data[1], data[2]])] == [True] * 2
        with pytest.raises(IndexError):
            data[4]

    def test_the_block_is_read_only(self):
        # a stray in-place write through any view raises instead of changing later rounds
        scheme = UpdateScheme(SchemeKind.FULL_GD, batch=5)
        spec = SyntheticSpec(task="regression", features=3, per_user=5)
        data, _, _ = make_synthetic(spec, 4, np.random.default_rng(0))
        users = [UserState(i, Role.NON_SENSITIVE, f, y, scheme) for i, (f, y) in enumerate(data)]
        cohort = Cohort(users, data)
        assert cohort.phi is data.phi and cohort.labels is data.labels
        own = Cohort([UserState(0, Role.NON_SENSITIVE, np.ones((5, 3)), np.ones(5), scheme)])
        for target in (data.phi, data.labels, users[1].features, users[1].labels,
                       cohort.stacks[0].phi, cohort.stacks[0].labels, own.phi, own.labels):
            with pytest.raises(ValueError, match="read-only"):
                target[0] = 0.0
        assert np.array_equal(data.phi[0], design(users[0].features)[0])
        # a cohort laid out from the users' own arrays copies them and leaves those writable
        own.users[0].features[0] = 2.0
        assert (own.phi[0] == 1.0).all()

    def test_a_cohort_refuses_another_partition(self):
        scheme = UpdateScheme(SchemeKind.FULL_GD, batch=5)
        spec = SyntheticSpec(task="regression", features=3, per_user=5)
        data, _, _ = make_synthetic(spec, 3, np.random.default_rng(0))
        users = [UserState(i, Role.NON_SENSITIVE, f, y, scheme) for i, (f, y) in enumerate(data)]
        with pytest.raises(ValueError, match="not the cohort's"):
            Cohort(users[:2], data)


class TestModels:
    def test_perfect_predictor(self):
        theta = np.array([2.0, -1.0, 0.5])
        features = np.random.default_rng(0).standard_normal((20, 2))
        labels = features @ theta[:2] + theta[2]
        model = GlobalModel(theta, ModelFamily.LINEAR_REGRESSION)
        assert evaluate_model(model, features, labels)["mse"] == pytest.approx(0.0, abs=1e-20)

    def test_constant_zero_classifier_on_balanced_labels(self):
        features = np.zeros((10, 2))
        labels = np.array([0.0, 1.0] * 5)
        model = GlobalModel(np.zeros(3), ModelFamily.LOGISTIC_REGRESSION)
        metrics = evaluate_model(model, features, labels)
        # z = 0 predicts class 0 everywhere: half the balanced labels match
        assert metrics["accuracy"] == 0.5
        assert metrics["log_loss"] == pytest.approx(math.log(2.0))

    def test_hand_computed_mse(self):
        # three examples, one feature: predictions 1*1+1, 1*2+1, 1*3+1
        features = np.array([[1.0], [2.0], [3.0]])
        labels = np.array([2.5, 2.0, 4.5])
        model = GlobalModel(np.array([1.0, 1.0]), ModelFamily.LINEAR_REGRESSION)
        expected = ((2 - 2.5) ** 2 + (3 - 2.0) ** 2 + (4 - 4.5) ** 2) / 3
        assert evaluate_model(model, features, labels)["mse"] == pytest.approx(expected)

    def test_empty_dataset_rejected(self):
        model = GlobalModel(np.zeros(3), ModelFamily.LINEAR_REGRESSION)
        with pytest.raises(EmptyDataset):
            evaluate_model(model, np.zeros((0, 2)), np.zeros(0))

    def test_per_example_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for family in ModelFamily:
            ops = ModelOps(family)
            theta = rng.standard_normal(4)
            features = rng.standard_normal((3, 3))
            labels = (
                rng.standard_normal(3)
                if family is ModelFamily.LINEAR_REGRESSION
                else rng.integers(0, 2, 3).astype(float)
            )
            phi = design(features)
            grads = ops.per_example_gradients(theta, phi, labels)
            h = 1e-6
            for j in range(4):
                bump = np.zeros(4)
                bump[j] = h
                num = (ops.loss(theta + bump, phi, labels) - ops.loss(theta - bump, phi, labels)) / (2 * h)
                assert grads[:, j].mean() == pytest.approx(num, abs=1e-5)


def make_users(n_total, n_sensitive, scheme, seed=0, task="classification",
               features=2, per_user=40):
    spec = SyntheticSpec(task=task, features=features, per_user=per_user)
    data, eval_data, _ = make_synthetic(spec, n_total, np.random.default_rng(seed))
    users = [
        UserState(i, Role.SENSITIVE if i < n_sensitive else Role.NON_SENSITIVE,
                  f, l, scheme)
        for i, (f, l) in enumerate(data)
    ]
    return users, eval_data, spec.family


def separable_users(n_users, scheme, seed=7, per_user=40):
    """Linearly separable 2-D classification data (margin, noiseless labels)."""
    rng = np.random.default_rng(seed)
    w = np.array([1.0, -0.5])
    users = []
    for i in range(n_users):
        feats = rng.standard_normal((per_user, 2))
        margin = feats @ w
        feats = feats[np.abs(margin) > 0.2]
        labels = (feats @ w > 0).astype(float)
        users.append(UserState(i, Role.NON_SENSITIVE, feats, labels, scheme))
    return users


class TestRunRound:
    def test_full_gd_loss_decreases_every_round(self):
        scheme = UpdateScheme(SchemeKind.FULL_GD, learning_rate=0.5)
        users = separable_users(4, scheme)
        eval_data = (users[0].features, users[0].labels)
        family = ModelFamily.LOGISTIC_REGRESSION
        model = init_model(family, 2)
        params = PrivacyParams(clip=5.0, batch=1, local_size=40, ns_users=4, delta=1e-3)
        mech = MechanismConfig(MechanismKind.NONE)
        ops = ModelOps(family)
        all_f = design(np.vstack([u.features for u in users]))
        all_l = np.concatenate([u.labels for u in users])
        losses = [ops.loss(model.theta, all_f, all_l)]
        for t in range(100):
            outcome = run_round(model, users, mech, params, ROUTES["closed_form:general"],
                                master_seed=3, round_index=t, eval_data=eval_data)
            model = outcome.model
            losses.append(outcome.train_loss)
        assert all(b < a for a, b in zip(losses, losses[1:]))
        # deterministic updates carry no inherent noise: eps must be infinite
        assert outcome.entry.eps == math.inf

    def test_wfdp_lambda_min_at_least_n_sigma2(self):
        scheme = UpdateScheme(SchemeKind.GAUSSIAN_SAMPLED, batch=10, learning_rate=0.1)
        users, eval_data, family = make_users(5, 1, scheme, seed=9)
        model = init_model(family, 2)
        sigma2 = 0.01
        params = PrivacyParams(clip=1.0, batch=10, local_size=40, ns_users=4,
                               delta=1e-3, floor=sigma2)
        mech = MechanismConfig(MechanismKind.WFDP, sigma2=sigma2)
        outcome = run_round(model, users, mech, params, ROUTES["closed_form:general"],
                            master_seed=1, round_index=0)
        assert outcome.lambda_min >= 4 * sigma2 - 1e-12
        assert outcome.entry.eps is not None and math.isfinite(outcome.entry.eps)

    def test_zero_learning_rate_keeps_model(self):
        scheme = UpdateScheme(SchemeKind.FULL_GD, learning_rate=1e-300)
        users, eval_data, family = make_users(3, 0, scheme, seed=11)
        users = [UserState(u.user_id, Role.NON_SENSITIVE, u.features, u.labels, scheme) for u in users]
        model = init_model(family, 2)
        params = PrivacyParams(clip=1.0, batch=1, local_size=40, ns_users=3, delta=1e-3)
        outcome = run_round(model, users, MechanismConfig(MechanismKind.NONE), params,
                            ROUTES["closed_form:general"], master_seed=2, round_index=0)
        # updates below the fixed-point quantum vanish in the ring
        assert np.array_equal(outcome.model.theta, model.theta)

    def test_none_mechanism_with_singular_covariance_is_refused_as_infinite(self):
        # full-batch GD has a deterministic update: zero covariance, rank 0
        scheme = UpdateScheme(SchemeKind.FULL_GD, learning_rate=0.1)
        users, _, family = make_users(3, 1, scheme, seed=13)
        model = init_model(family, 2)
        params = PrivacyParams(clip=1.0, batch=1, local_size=40, ns_users=2, delta=1e-3)
        outcome = run_round(model, users, MechanismConfig(MechanismKind.NONE), params,
                            ROUTES["closed_form:general"], master_seed=4, round_index=0)
        assert outcome.entry.eps == math.inf
        assert "necessary condition violated" in outcome.entry.cause

    def test_wfna_with_iid_sampling_refused(self):
        scheme = UpdateScheme(SchemeKind.IID_SGD, batch=5, learning_rate=0.1)
        users, _, family = make_users(3, 1, scheme, seed=15)
        model = init_model(family, 2)
        params = PrivacyParams(clip=1.0, batch=5, local_size=40, ns_users=2,
                               delta=1e-3, floor=0.01)
        outcome = run_round(model, users, MechanismConfig(MechanismKind.WFNA, sigma2=0.01),
                            params, ROUTES["closed_form:general"], master_seed=5, round_index=0)
        assert outcome.entry.eps == math.inf
        assert "no DP guarantee" in outcome.entry.cause

    def test_needs_non_sensitive_user(self):
        scheme = UpdateScheme(SchemeKind.FULL_GD, learning_rate=0.1)
        users, _, family = make_users(2, 2, scheme, seed=17)
        model = init_model(family, 2)
        params = PrivacyParams(clip=1.0, batch=1, local_size=40, ns_users=1, delta=1e-3)
        with pytest.raises(ConfigError):
            run_round(model, users, MechanismConfig(MechanismKind.NONE), params,
                      ROUTES["closed_form:general"], master_seed=0, round_index=0)


class TestRunSimulation:
    def simulation(self, mech_kind=MechanismKind.WFDP, seed=21, rounds=4,
                   route=ROUTES["closed_form:general"], composition=CompositionMode.SIMPLE):
        scheme = UpdateScheme(SchemeKind.GAUSSIAN_SAMPLED, batch=10, learning_rate=0.2)
        users, eval_data, family = make_users(4, 1, scheme, seed=19, task="regression")
        model = init_model(family, 2)
        sigma2 = 0.02
        params = PrivacyParams(clip=1.0, batch=10, local_size=40, ns_users=3,
                               delta=1e-3, floor=sigma2)
        mech = MechanismConfig(mech_kind, sigma2=sigma2 if mech_kind is not MechanismKind.NONE else 0.0)
        return run_simulation(users, model, mech, params, route, rounds=rounds,
                              master_seed=seed, eval_data=eval_data, composition=composition)

    def test_deterministic_replay(self):
        a = self.simulation()
        b = self.simulation()
        assert a.total_eps == b.total_eps
        assert np.array_equal(a.model.theta, b.model.theta)
        assert a.rows == b.rows

    def test_cumulative_eps_monotone(self):
        result = self.simulation(rounds=6)
        cum = [row["eps_cumulative"] for row in result.rows]
        assert all(b >= a for a, b in zip(cum, cum[1:]))
        assert result.total_eps == cum[-1]

    def test_rdp_route_composes(self):
        result = self.simulation(route=ROUTES["wfdp_b"], composition=CompositionMode.RDP)
        assert result.total_eps is not None and math.isfinite(result.total_eps)
        assert result.alpha_star is not None
        for row in result.rows:
            assert row["eps_round"] >= 0

    def test_noise_trace_positive_under_flooring(self):
        result = self.simulation()
        assert all(row["noise_trace"] > 0 for row in result.rows)

    def test_ddp_isotropic_floor_recorded(self):
        result = self.simulation(mech_kind=MechanismKind.DDP)
        # three non-sensitive shares of sigma^2/4 raise lambda_min by 3/4 sigma^2
        assert all(row["lambda_min"] >= 0.75 * 0.02 - 1e-12 for row in result.rows)

    def test_fedavg_round_with_flooring(self):
        scheme = UpdateScheme(SchemeKind.FEDAVG, batch=8, learning_rate=0.2,
                              fedavg_samples=6, local_steps=1)
        users, eval_data, family = make_users(3, 1, scheme, seed=23, task="regression")
        model = init_model(family, 2)
        sigma2 = 0.001
        params = PrivacyParams(clip=0.5, batch=8, local_size=40, ns_users=2,
                               delta=1e-3, floor=sigma2)
        outcome = run_round(model, users, MechanismConfig(MechanismKind.WFDP, sigma2=sigma2),
                            params, ROUTES["closed_form:general"], master_seed=6, round_index=0,
                            eval_data=eval_data)
        assert outcome.lambda_min >= 2 * sigma2 - 1e-12
        assert math.isfinite(outcome.entry.eps)
        assert not np.array_equal(outcome.model.theta, model.theta)


class TestFullGdModel:
    def test_zero_model_stores_no_eigenpairs_and_floors_to_isotropic(self):
        scheme = UpdateScheme(SchemeKind.FULL_GD, learning_rate=0.1)
        users, _, family = make_users(2, 0, scheme, seed=31, task="regression", features=6)
        theta = init_model(family, 6).theta
        stack = Cohort(users).stacks[0]
        _, models = simulation.user_update(stack, ModelOps(family), theta, 1.0,
                                           [np.random.default_rng(0)] * 2)
        model = CovarianceModel(models.mean[0], models.eigvecs[0], models.eigvals[0], models.tail[0])
        dim = theta.shape[0]
        assert model.n_components == 0
        assert np.array_equal(model.spectrum(), np.zeros(dim))
        update = mechanisms.wfdp_update(model, 0.04, np.random.default_rng(3))
        assert np.array_equal(update.floored.matrix(), 0.04 * np.eye(dim))
        assert update.noise_trace == pytest.approx(dim * 0.04, rel=1e-15)
        # the draw is d normals scaled by sigma, as a d x d identity model drew them
        expected = model.mean + math.sqrt(0.04) * np.random.default_rng(3).standard_normal(dim)
        assert np.array_equal(update.vector, expected)


def members(stack):
    return stack.mean.shape[0] if stack.mean.ndim == 2 else 1


class TestEstimatesPerRound:
    def estimates(self, monkeypatch, sigma2):
        """The rows of every estimate one WFDP round makes, once per stack member."""
        seen = []
        original = simulation.estimate_mean_cov

        def counting(grads, batch):
            model = original(grads, batch)
            seen.extend([grads.dim] * members(model))
            return model

        monkeypatch.setattr(mechanisms, "estimate_mean_cov", counting)
        monkeypatch.setattr(simulation, "estimate_mean_cov", counting)
        scheme = UpdateScheme(SchemeKind.GAUSSIAN_SAMPLED, batch=10, learning_rate=0.1)
        users, _, family = make_users(4, 1, scheme, seed=27, task="regression", features=4)
        params = PrivacyParams(clip=1.0, batch=10, local_size=40, ns_users=3,
                               delta=1e-3, floor=sigma2)
        mech = MechanismConfig(MechanismKind.WFDP, sigma2=sigma2)
        run_round(init_model(family, 4), users, mech, params, ROUTES["closed_form:general"],
                  master_seed=8, round_index=0)
        return seen

    # the non-sensitive users' largest eigenvalues are 0.0239, 0.0194 and 0.0266
    @pytest.mark.parametrize("sigma2,estimates", [(0.01, 4), (0.022, 3), (0.05, 1)],
                             ids=["none_covered", "one_covered", "all_covered"])
    def test_gaussian_sampled_user_estimated_once(self, monkeypatch, sigma2, estimates):
        # the sensitive user's draw needs its estimate; a non-sensitive user is
        # estimated only when it has an eigenvalue above the floor, and never twice
        assert self.estimates(monkeypatch, sigma2) == [5] * estimates



class TestOneWfdpPath:
    """Under WFDP every non-sensitive stack is floored from its spectrum, never via ``user_update``."""

    SIGMA2 = 0.02

    def round(self, monkeypatch, scheme_kind, features=4):
        roles = []
        original = simulation.user_update

        def recording(stack, *args):
            roles.append(stack.role)
            return original(stack, *args)

        monkeypatch.setattr(simulation, "user_update", recording)
        scheme = UpdateScheme(scheme_kind, batch=10, learning_rate=0.2, fedavg_samples=4)
        users, _, family = make_users(4, 1, scheme, seed=29, task="regression",
                                      features=features)
        params = PrivacyParams(clip=1.0, batch=10, local_size=40, ns_users=3,
                               delta=1e-3, floor=self.SIGMA2)
        mech = MechanismConfig(MechanismKind.WFDP, self.SIGMA2)
        outcome = run_round(init_model(family, features), users, mech, params, ROUTES["wfdp_b"],
                            master_seed=10, round_index=0)
        assert outcome.lambda_min >= 3 * self.SIGMA2 - 1e-12
        return roles

    # 40 gradients are dense in d = 5 coordinates and thin in d = 80
    SHAPES = pytest.mark.parametrize("features", [4, 79], ids=["dense", "thin"])

    @SHAPES
    @pytest.mark.parametrize("scheme_kind", list(SchemeKind))
    def test_no_non_sensitive_stack_reaches_user_update(self, monkeypatch, scheme_kind,
                                                         features):
        assert self.round(monkeypatch, scheme_kind, features) == [Role.SENSITIVE]

    @SHAPES
    def test_full_gd_is_covered_without_a_decomposition(self, monkeypatch, features):
        # the deterministic update's spectrum is zero: nothing is decomposed at all
        calls = []
        for name in ("eigh", "eigvalsh", "qr"):
            def counting(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(spectra_module.np.linalg, name, counting)
        self.round(monkeypatch, SchemeKind.FULL_GD, features)
        assert calls == []


class TestFloorsPerRound:
    @pytest.mark.parametrize("mech_kind", [MechanismKind.WFDP, MechanismKind.WFNA])
    def test_each_non_sensitive_model_floored_once(self, monkeypatch, mech_kind):
        calls = []
        original = mechanisms.floor_eigenvalues

        def counting(model, floor):
            calls.extend([floor] * members(model))
            return original(model, floor)

        monkeypatch.setattr(mechanisms, "floor_eigenvalues", counting)
        monkeypatch.setattr(simulation, "floor_eigenvalues", counting, raising=False)
        scheme = UpdateScheme(SchemeKind.GAUSSIAN_SAMPLED, batch=10, learning_rate=0.1)
        users, _, family = make_users(4, 1, scheme, seed=27, task="regression", features=4)
        params = PrivacyParams(clip=1.0, batch=10, local_size=40, ns_users=3,
                               delta=1e-3, floor=0.01)
        outcome = run_round(init_model(family, 4), users, MechanismConfig(mech_kind, sigma2=0.01),
                            params, ROUTES["closed_form:general"], master_seed=8, round_index=0)
        assert calls == [0.01] * 3
        assert outcome.lambda_min >= 3 * 0.01 - 1e-12


class TestRoundPerSchemeAndMechanism:
    SIGMA2 = 0.02

    @pytest.mark.parametrize("mech_kind", list(MechanismKind))
    @pytest.mark.parametrize("scheme_kind", list(SchemeKind))
    def test_floor_noise_warning_and_refusal(self, scheme_kind, mech_kind):
        scheme = UpdateScheme(scheme_kind, batch=10, learning_rate=0.2, fedavg_samples=4)
        users, _, family = make_users(4, 1, scheme, seed=29, task="regression", features=4)
        params = PrivacyParams(clip=1.0, batch=10, local_size=40, ns_users=3,
                               delta=1e-3, floor=self.SIGMA2)
        sigma2 = 0.0 if mech_kind is MechanismKind.NONE else self.SIGMA2
        mech = MechanismConfig(mech_kind, sigma2)
        floors = mech_kind in (MechanismKind.WFDP, MechanismKind.WFNA)
        if not floors:
            # WFDP_B reads the floor from params, which no mechanism here applies
            with pytest.raises(ConfigError, match=f"floor 0.02 .* {mech_kind.value} floors at 0$"):
                run_round(init_model(family, 4), users, mech, params, ROUTES["wfdp_b"],
                          master_seed=10, round_index=0)
        # WFDP_B reads (N, sigma^2) from params, and the singular closed form
        # refuses only a zero aggregate: deterministic full-batch updates, unnoised
        route = ROUTES["wfdp_b"] if floors else ROUTES["closed_form:singular"]
        outcome = run_round(init_model(family, 4), users, mech, params, route,
                            master_seed=10, round_index=0)
        entry = outcome.entry
        gaussian = scheme_kind is SchemeKind.GAUSSIAN_SAMPLED
        if floors:
            assert outcome.lambda_min >= 3 * sigma2 - 1e-12
        assert (entry.noise_trace > 0) == (mech_kind is not MechanismKind.NONE)
        zero = mech_kind is MechanismKind.NONE and scheme_kind is SchemeKind.FULL_GD
        # a refused round carries no warning
        expect_warning = (not gaussian and not zero
                          and mech_kind in (MechanismKind.NONE, MechanismKind.DDP))
        assert (WARN_APPROX_GAUSSIAN in entry.warnings) == expect_warning
        if mech_kind is MechanismKind.WFNA and not gaussian:
            assert entry.route == "refused"
            assert "no DP guarantee" in entry.cause
        elif zero:
            assert entry.route == "refused"
            assert "covariance is zero" in entry.cause
        else:
            assert entry.cause is None
            assert entry.route == ("rdp:wfdp_b" if floors else "closed_form:singular")


class TestRoundEps:
    # N sigma^2 D = 2 C^2: the floored-mechanism order interval is empty
    EMPTY = PrivacyParams(clip=1.0, batch=10, local_size=100, ns_users=2, delta=1e-5, floor=0.01)

    def curve_entry(self):
        return LedgerEntry(round_index=0, route="rdp:wfdp_a",
                           curve=RdpCurve(RdpVariant.WFDP_A, self.EMPTY))

    def test_empty_validity_interval_is_infinite(self):
        assert accountant.round_eps(self.curve_entry(), self.EMPTY.delta) == math.inf

    def test_unexpected_errors_propagate(self, monkeypatch):
        def broken(curve, delta):
            raise RuntimeError("bug")

        monkeypatch.setattr(accountant, "curve_eps", broken)
        with pytest.raises(RuntimeError):
            accountant.round_eps(self.curve_entry(), self.EMPTY.delta)


def of_one(grads):
    """A stack of one's gradients as that user's own (dim, count) ``GradientMatrix``."""
    return GradientMatrix(grads.columns[0], grads.clip_bound)


def model_of_one(models):
    """A model stack of one as that user's own model."""
    return CovarianceModel(models.mean[0], models.eigvecs[0], models.eigvals[0], models.tail[0])


def per_user_round(model, users, mech, params, route, master_seed, round_index):
    """The round as a loop over users, one model each, in slot order: the stacked round's reference.

    Each user runs the library calls as a stack of one on its own design rows
    and stream, and takes its own gradients and model out of it; its update is
    scaled by -eta (FEDAVG's by 1), its WFNA lift or DDP share by eta (or 1);
    models are summed as a list of single models, and the training
    loss reads the users' rows stacked afresh. Under WFDP a non-sensitive
    user's update distribution (the FEDAVG replays, or else the clipped
    gradients, FULL_GD's with a zero spectrum) is made once: a Gaussian-sampled
    user's stream skips the draw WFDP replaces, and an IID-SGD user still
    draws its minibatch. Then its spectrum is read: at or below the floor the
    user is floored to sigma^2 I with no estimate, above it it is estimated
    and floored. Theorem 1's context sums B lambda_min over the users, and is zero when no
    user's spectrum has full rank.
    """
    n_total = len(users)
    ops = ModelOps(model.family)
    theta, dim = model.theta, model.dim
    refusal = simulation._guarantee_refusal(mech, users)
    submissions = []
    ns_models = []
    theorem1_context = noise_trace = 0.0
    full_rank_users = 0
    approx_gaussian = False
    sigma2 = mech.sigma2
    for slot, user in enumerate(users):
        rng = simulation._user_rng(master_seed, round_index, slot)
        scheme = user.scheme
        phi = design(user.features)
        update_scale = 1.0 if scheme.kind is SchemeKind.FEDAVG else scheme.learning_rate
        if user.role is Role.NON_SENSITIVE and mech.kind is MechanismKind.WFDP:
            # WFDP replaces the update: it is not made, and a Gaussian-sampled draw is skipped
            if scheme.kind is SchemeKind.FEDAVG:
                grads = of_one(mechanisms.fedavg_replays(scheme, phi[None], user.labels[None], ops,
                                                         theta, params.clip, [rng]))
            elif scheme.kind is SchemeKind.IID_SGD:
                _, grads, _ = mechanisms.compute_update(
                    scheme, phi[None], user.labels[None], ops, theta, params.clip, [rng]
                )
                grads = of_one(grads)
            else:
                grads = of_one(mechanisms.clipped_gradients(phi[None], user.labels[None], ops,
                                                            theta, params.clip))
            if scheme.kind is SchemeKind.GAUSSIAN_SAMPLED:
                # the draw's normals: D when thin, one per coordinate when dense
                rng.standard_normal(grads.count if 2 * grads.count <= dim else dim)
            batch = np.inf if scheme.kind is SchemeKind.FULL_GD else scheme.batch
            if scheme.kind is SchemeKind.FULL_GD:
                spectrum = np.zeros(dim)  # deterministic: no sampling randomness
            else:
                _, spectrum = floor_coverage(grads, scheme.batch, sigma2, spectra=True)
            if spectrum[0] <= sigma2:
                # floored to sigma^2 I, from one fresh normal per coordinate
                floored = CovarianceModel(grads.columns.mean(axis=1), np.zeros((dim, 0)),
                                          np.zeros(0), tail=sigma2)
                # every eigenvalue is lifted: d sigma^2 minus the second moment's trace
                squared_norms = np.sum(grads.columns ** 2, axis=0)
                lift = dim * sigma2 - np.sum(squared_norms) / (batch * grads.count)
                noised = mechanisms.NoisedUpdate(sample_gaussian(floored, rng), lift, floored)
            else:
                dist_model = estimate_mean_cov(grads, scheme.batch)
                spectrum = dist_model.spectrum()
                noised = mechanisms.wfdp_update(dist_model, sigma2, rng)
            ns_models.append(noised.floored)
            if route is ROUTES["theorem1_rdp"]:
                theorem1_context += params.batch * spectrum[-1]
                full_rank_users += spectra_module.rank(spectrum) == dim
            sign = 1.0 if scheme.kind is SchemeKind.FEDAVG else -1.0
            submissions.append(sign * update_scale * noised.vector)
            noise_trace += noised.noise_trace
            continue
        raw, grads, sampled_from = mechanisms.compute_update(
            scheme, phi[None], user.labels[None], ops, theta, params.clip, [rng]
        )
        x = raw[0] if scheme.kind is SchemeKind.FEDAVG else -scheme.learning_rate * raw[0]
        if user.role is Role.NON_SENSITIVE:
            if scheme.kind is SchemeKind.FEDAVG:
                replays = mechanisms.fedavg_replays(scheme, phi[None], user.labels[None], ops,
                                                    theta, params.clip, [rng])
                dist_model = estimate_mean_cov(of_one(replays), scheme.batch)
            elif scheme.kind is SchemeKind.FULL_GD:
                dist_model = CovarianceModel(of_one(grads).columns.mean(axis=1), np.zeros((dim, 0)),
                                             np.zeros(0))
            elif sampled_from is not None:
                dist_model = model_of_one(sampled_from)
            else:
                dist_model = estimate_mean_cov(of_one(grads), scheme.batch)
            if route is ROUTES["theorem1_rdp"]:
                theorem1_context += params.batch * dist_model.spectrum()[-1]
                full_rank_users += spectra_module.rank(dist_model.spectrum()) == dim
            if mech.kind is MechanismKind.WFNA:
                noised = mechanisms.wfna_noise(dist_model, sigma2, rng)
                x = x + update_scale * noised.vector
                dist_model = noised.floored
                noise_trace += noised.noise_trace
            else:
                approx_gaussian |= scheme.kind is not SchemeKind.GAUSSIAN_SAMPLED
            ns_models.append(dist_model)
        if mech.kind is MechanismKind.DDP:
            share = mechanisms.ddp_noise(sigma2, n_total, dim, rng)
            x = x + update_scale * share.vector
            noise_trace += share.noise_trace
        submissions.append(x)
    channel = SAChannel(n_total, dim, simulation._channel_seed(master_seed, round_index))
    for slot, x in enumerate(submissions):
        channel.submit(slot, x)
    new_model = GlobalModel(theta + channel.aggregate() / n_total, model.family, round_index + 1)
    extra = simulation._isotropic_extra(mech, len(ns_models), n_total)
    summed = sum_covariances(ns_models, isotropic_extra=extra)
    lambda_min = float(summed[-1])
    if not full_rank_users:
        theorem1_context = 0.0
    entry = simulation._account(summed, theorem1_context, params, route,
                                round_index, noise_trace, refusal, approx_gaussian)
    all_phi = design(np.vstack([u.features for u in users]))
    train_loss = ops.loss(new_model.theta, all_phi, np.concatenate([u.labels for u in users]))
    return RoundOutcome(entry, new_model, train_loss, {}, lambda_min)


class TestStackedRoundMatchesPerUserLoop:
    """``run_round`` equals ``per_user_round`` bit for bit, submitted updates included."""

    SIGMA2 = 0.02

    def both(self, monkeypatch, users, mech, params, route, family, dim, seed=3):
        submitted = []
        original = SAChannel.submit

        def recording(channel, slot, update):
            submitted.append((slot, np.array(update)))
            return original(channel, slot, update)

        monkeypatch.setattr(SAChannel, "submit", recording)
        model = init_model(family, dim - 1)
        outcomes = []
        for fn in (run_round, per_user_round):
            submitted.clear()
            outcome = fn(model, users, mech, params, route, seed, 1)
            outcomes.append((outcome, list(submitted)))
        (stacked, sent_stacked), (looped, sent_looped) = outcomes
        assert [s for s, _ in sent_stacked] == [s for s, _ in sent_looped]
        for (_, a), (_, b) in zip(sent_stacked, sent_looped):
            assert np.array_equal(a, b)
        assert np.array_equal(stacked.model.theta, looped.model.theta)
        assert stacked.lambda_min == looped.lambda_min
        assert stacked.entry.noise_trace == looped.entry.noise_trace
        assert stacked.entry == looped.entry
        assert stacked.train_loss == looped.train_loss
        return stacked

    def setup(self, scheme_kind, mech_name, dim, n_total=5, per_user=10, batch=5):
        scheme = UpdateScheme(scheme_kind, batch=batch, learning_rate=0.2, fedavg_samples=3)
        users, _, family = make_users(n_total, 1, scheme, seed=dim, task="regression",
                                      features=dim - 1, per_user=per_user)
        kind = MechanismKind(mech_name)
        sigma2 = 0.0 if kind is MechanismKind.NONE else self.SIGMA2
        mech = MechanismConfig(kind, sigma2)
        params = PrivacyParams(clip=1.0, batch=batch, local_size=per_user, ns_users=n_total - 1,
                               delta=1e-3, floor=self.SIGMA2)
        return users, mech, params, family

    # with 10 gradients a user is dense at d = 5 and 12, thin at 40, and thin
    # at d = 20 by the boundary's equality (2 D <= d)
    @pytest.mark.parametrize("dim", [5, 12, 20, 40])
    @pytest.mark.parametrize("mech_name", ["wfdp", "wfna", "ddp", "none"])
    @pytest.mark.parametrize("scheme_kind", list(SchemeKind))
    def test_every_scheme_mechanism_and_shape(self, monkeypatch, scheme_kind, mech_name, dim):
        users, mech, params, family = self.setup(scheme_kind, mech_name, dim)
        for route in (ROUTES["theorem1_rdp"], ROUTES["closed_form:singular"]):
            self.both(monkeypatch, users, mech, params, route, family, dim)

    @pytest.mark.parametrize("budget", [1, 8 * 12 * 12 * 2])
    def test_stacks_of_one_and_a_ragged_last_stack(self, monkeypatch, budget):
        # budget 1 caps every stack at one user; the other at two, so the
        # 6 non-sensitive users of 7 run as 2 + 2 + 2 and the sensitive one alone
        monkeypatch.setattr(simulation, "_STACK_BYTES", budget)
        users, mech, params, family = self.setup(SchemeKind.GAUSSIAN_SAMPLED, "wfdp", 12,
                                                 n_total=7)
        sizes = [len(stack.slots) for stack in Cohort(users).stacks]
        assert sizes == ([1] * 7 if budget == 1 else [1, 2, 2, 2])
        self.both(monkeypatch, users, mech, params, ROUTES["closed_form:general"], family, 12)

    @pytest.mark.parametrize("mech_name", ["wfdp", "ddp"])
    def test_users_of_unequal_size(self, monkeypatch, mech_name):
        users, mech, params, family = self.setup(SchemeKind.IID_SGD, mech_name, 12, n_total=6,
                                                 per_user=30)
        sizes = [10, 10, 30, 30, 12, 12]
        users = [UserState(u.user_id, u.role, u.features[:n], u.labels[:n], u.scheme)
                 for u, n in zip(users, sizes)]
        assert [stack.phi.shape[:2] for stack in Cohort(users).stacks] == [
            (1, 10), (1, 10), (2, 30), (2, 12)
        ]
        self.both(monkeypatch, users, mech, params, ROUTES["closed_form:general"], family, 12)

    def test_rank_deficient_member_stays_in_its_stack(self, monkeypatch):
        # one user's rows repeat, so its thin second moment has rank 2 of D = 10;
        # its estimate still keeps D components, in its stack mates' model stack
        users, mech, params, family = self.setup(SchemeKind.GAUSSIAN_SAMPLED, "wfdp", 40)
        repeated = np.repeat(users[2].features[:2], 5, axis=0)
        users[2] = UserState(2, users[2].role, repeated, users[2].labels, users[2].scheme)
        stack = Cohort(users).stacks[1]
        assert stack.slots == range(1, 5)
        ops, theta = ModelOps(family), np.zeros(40)
        rngs = [np.random.default_rng(i) for i in stack.slots]
        _, model = simulation.user_update(stack, ops, theta, 1.0, rngs)
        assert members(model) == 4 and model.n_components == 10
        cols = mechanisms.clipped_gradients(stack.phi[1:2], stack.labels[1:2], ops, theta, 1.0)
        alone = estimate_mean_cov(of_one(cols), stack.scheme.batch)
        assert spectra_module.rank(alone.spectrum()) == 2
        for stacked, one in ((model.mean[1], alone.mean), (model.eigvals[1], alone.eigvals),
                             (model.eigvecs[1], alone.eigvecs)):
            assert np.array_equal(stacked, one)
        # its draw took D normals, as its stack mates' did; under WFDP the skip of as
        # many is checked against the per-user loop below
        skipped = np.random.default_rng(2)
        skipped.standard_normal(10)
        assert rngs[1].bit_generator.state == skipped.bit_generator.state
        self.both(monkeypatch, users, mech, params, ROUTES["closed_form:general"], family, 40)

    # the non-sensitive users' largest eigenvalues: d = 5: 0.0591, 0.0492, 0.112,
    # 0.0468; d = 12: 0.0526, 0.0606, 0.048, 0.0424; d = 40: 0.0316, 0.0318,
    # 0.0367, 0.0326, so each floor below covers some of them and 0.5 all
    @pytest.mark.parametrize("dim,sigma2", [(5, 0.06), (12, 0.05), (40, 0.032), (12, 0.5),
                                            (40, 0.5)])
    @pytest.mark.parametrize("scheme_kind", [SchemeKind.GAUSSIAN_SAMPLED, SchemeKind.IID_SGD])
    def test_floor_covering_some_or_all_users(self, monkeypatch, scheme_kind, dim, sigma2):
        users, _, params, family = self.setup(scheme_kind, "wfdp", dim)
        mech = MechanismConfig(MechanismKind.WFDP, sigma2)
        params = dataclasses.replace(params, floor=sigma2)
        _, spectra, _, _, _ = simulation.noise_round(init_model(family, dim - 1), Cohort(users),
                                                     mech, params.clip, 3, 1, spectra=True)
        covered = spectra[:, 0] <= sigma2
        assert covered.any() and covered.all() == (sigma2 == 0.5)
        for route in (ROUTES["theorem1_rdp"], ROUTES["closed_form:singular"]):
            self.both(monkeypatch, users, mech, params, route, family, dim)

    def test_non_finite_member_raises_the_per_user_error(self, monkeypatch):
        users, mech, params, family = self.setup(SchemeKind.GAUSSIAN_SAMPLED, "wfdp", 5)
        bad = users[3].features.copy()
        bad[4, 1] = np.nan
        users[3] = UserState(3, users[3].role, bad, users[3].labels, users[3].scheme)
        for fn in (run_round, per_user_round):
            with pytest.raises(NonFinite, match="gradient columns contains NaN or Inf"):
                fn(init_model(family, 4), users, mech, params, ROUTES["closed_form:general"], 3, 0)

    def test_over_clipped_member_raises_the_per_user_error(self, monkeypatch):
        users, mech, params, family = self.setup(SchemeKind.FULL_GD, "wfdp", 5)
        clipped = mechanisms._clipped_per_example

        def loose(model, theta, phi, labels, clip, out=None):
            # the user in slot 3 gets one column far outside the clip ball
            grads = clipped(model, theta, phi, labels, clip, out=out)
            for member, member_labels in zip(grads, labels):
                if np.array_equal(member_labels, users[3].labels):
                    member[0] *= 1e3
            return grads

        monkeypatch.setattr(mechanisms, "_clipped_per_example", loose)
        messages = []
        for fn in (run_round, per_user_round):
            with pytest.raises(ValueError, match="exceeds clip bound") as err:
                fn(init_model(family, 4), users, mech, params, ROUTES["closed_form:general"], 3, 0)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestRoundScalesEachUpdateOnce:
    """``compute_update`` returns updates on the clipped-gradient scale; the round scales them."""

    def submitted(self, monkeypatch, scheme_kind):
        scheme = UpdateScheme(scheme_kind, batch=5, learning_rate=0.3, fedavg_samples=3)
        users, _, family = make_users(4, 1, scheme, seed=47, task="regression", features=5,
                                      per_user=20)
        sent = {}
        original = SAChannel.submit

        def recording(channel, slot, update):
            sent[slot] = np.array(update)
            return original(channel, slot, update)

        monkeypatch.setattr(SAChannel, "submit", recording)
        model = init_model(family, 5)
        params = PrivacyParams(clip=1.0, batch=5, local_size=20, ns_users=3, delta=1e-3)
        run_round(model, users, MechanismConfig(MechanismKind.NONE), params,
                  ROUTES["closed_form:general"], master_seed=4, round_index=2)
        rngs = [simulation._user_rng(4, 2, slot) for slot in range(len(users))]
        return users, ModelOps(family), model.theta, rngs, sent

    def test_full_gd_stack_submits_minus_eta_times_the_update(self, monkeypatch):
        users, ops, theta, rngs, sent = self.submitted(monkeypatch, SchemeKind.FULL_GD)
        stack = Cohort(users).stacks[1]
        assert stack.slots == range(1, 4)
        raw, _, _ = mechanisms.compute_update(stack.scheme, stack.phi, stack.labels, ops, theta,
                                              1.0, [rngs[slot] for slot in stack.slots])
        for slot, update in zip(stack.slots, raw):
            assert np.array_equal(sent[slot], -0.3 * update)

    def test_fedavg_stack_submits_the_clipped_delta(self, monkeypatch):
        users, ops, theta, rngs, sent = self.submitted(monkeypatch, SchemeKind.FEDAVG)
        for slot, user in enumerate(users):
            delta = mechanisms._local_epochs(user.scheme, ops, theta, design(user.features),
                                             user.labels, 1.0, rngs[slot])
            assert np.array_equal(sent[slot], mechanisms.clip_gradient(delta, 1.0))


class TestAccountReadsTheSpectrum:
    """``_account`` reads rank and the smallest nonzero eigenvalue off the summed spectrum."""

    PARAMS = PrivacyParams(clip=1.0, batch=10, local_size=40, ns_users=2, delta=1e-3)

    def account(self, spectrum, route):
        return simulation._account(np.array(spectrum), 0.0, self.PARAMS, route,
                                   0, 0.0, None, False)

    def test_singular_route_reads_the_smallest_nonzero_eigenvalue(self):
        entry = self.account([0.5, 0.02, 0.0], ROUTES["closed_form:singular"])
        assert entry.cause is None and entry.lambda_min == 0.02
        # below the rank threshold (1e-10 times the largest) counts as zero
        assert self.account([0.5, 0.02, 4e-11], ROUTES["closed_form:singular"]).lambda_min == 0.02
        zero = self.account([0.0, 0.0, 0.0], ROUTES["closed_form:singular"])
        assert zero.eps == math.inf and "covariance is zero" in zero.cause

    def test_general_route_refuses_a_rank_deficient_sum(self):
        entry = self.account([0.5, 0.02, 4e-11], ROUTES["closed_form:general"])
        assert entry.eps == math.inf and "rank 2 < 3" in entry.cause
        assert self.account([0.5, 0.02, 6e-11], ROUTES["closed_form:general"]).cause is None

    def test_theorem1_route_refuses_a_zero_context(self):
        spectrum = np.array([0.5, 0.02, 0.01])
        refused = simulation._account(spectrum, 0.0, self.PARAMS, ROUTES["theorem1_rdp"],
                                      0, 0.0, None, False)
        assert refused.eps == math.inf and "covariance is singular" in refused.cause
        entry = simulation._account(spectrum, 0.2, self.PARAMS, ROUTES["theorem1_rdp"],
                                    0, 0.0, None, False)
        assert entry.cause is None and entry.curve.sum_lambda_min == 0.2

    def test_theorem1_route_refuses_a_context_at_most_its_limit(self):
        # C^2/D = 1/40: no order above 1 keeps theorem 1's denominator positive
        refused = simulation._account(np.array([0.5, 0.02, 0.01]), 0.02, self.PARAMS,
                                      ROUTES["theorem1_rdp"], 0, 0.0, None, False)
        assert refused.route == "refused" and refused.eps == math.inf
        assert refused.lambda_min == 0.02
        assert refused.cause == (
            "empty alpha validity interval for theorem1_rdp: upper bound 0.8 <= 1; theorem 1's "
            "context sum_u B lambda_min(Sigma_u) = 0.02 is at most C^2/D = 0.025"
        )

    def test_theorem1_context_is_zero_when_every_user_is_singular(self, monkeypatch):
        # D = 3 replays of d = 5 coordinates: each user's dense estimate has rank 3,
        # and its computed lambda_min is rounding, not a context
        scheme = UpdateScheme(SchemeKind.FEDAVG, batch=2, learning_rate=0.2, fedavg_samples=3)
        users, _, family = make_users(4, 1, scheme, seed=2, task="regression", features=4,
                                      per_user=10)
        params = PrivacyParams(clip=1.0, batch=2, local_size=10, ns_users=3, delta=1e-3)
        contexts = []
        original = simulation._account

        def recording(summed, theorem1_context, *args):
            contexts.append(theorem1_context)
            return original(summed, theorem1_context, *args)

        monkeypatch.setattr(simulation, "_account", recording)
        _, spectra, _, _, _ = simulation.noise_round(init_model(family, 4), Cohort(users),
                                                     MechanismConfig(MechanismKind.NONE), 1.0, 5,
                                                     0, spectra=True)
        assert (spectra_module.rank(spectra) < 5).all() and spectra[:, -1].max() > 0.0
        outcome = run_round(init_model(family, 4), users, MechanismConfig(MechanismKind.NONE),
                            params, ROUTES["theorem1_rdp"], master_seed=5, round_index=0)
        assert contexts == [0.0] and "covariance is singular" in outcome.entry.cause


class TestAggregateSpectrum:
    """A round reads its aggregate as eigenvalues alone: one 2-D eigvalsh of the sum, no 2-D eigh."""

    @pytest.mark.parametrize("features", [11, 59], ids=["dense", "thin"])
    @pytest.mark.parametrize("kind", [MechanismKind.WFDP, MechanismKind.NONE], ids=["wfdp", "none"])
    def test_one_eigvalsh_of_the_sum(self, monkeypatch, kind, features):
        scheme = UpdateScheme(SchemeKind.GAUSSIAN_SAMPLED, batch=5, learning_rate=0.2)
        users, _, family = make_users(6, 1, scheme, seed=41, task="regression",
                                      features=features, per_user=20)
        model = init_model(family, features)
        # a floor far below the users' spectra: every user is estimated and the sum is dense
        mech = MechanismConfig(kind, 1e-6 if kind is MechanismKind.WFDP else 0.0)
        params = PrivacyParams(clip=1.0, batch=5, local_size=20, ns_users=5, delta=1e-3,
                               floor=mech.floor)
        shapes = {"eigh": [], "eigvalsh": []}
        for name, calls in shapes.items():
            original = getattr(np.linalg, name)

            def recording(a, *args, _calls=calls, _original=original, **kwargs):
                _calls.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        run_round(model, users, mech, params, ROUTES["closed_form:general"], master_seed=5,
                  round_index=0)
        dim = model.dim
        assert [s for s in shapes["eigvalsh"] if len(s) == 2] == [(dim, dim)]
        assert [s for s in shapes["eigh"] if len(s) == 2] == []
        # the users' estimates and spectra are the stacked 3-D calls
        assert all(len(s) == 3 for calls in shapes.values() for s in calls if len(s) != 2)


class TestFloorsFromSpectra:
    """WFDP floors a user its floor covers to sigma^2 I, with no eigenvectors."""

    SIGMA2 = 0.5  # above every user's largest eigenvalue

    def setup(self, features, scheme_kind=SchemeKind.GAUSSIAN_SAMPLED):
        scheme = UpdateScheme(scheme_kind, batch=5, learning_rate=0.2, fedavg_samples=3)
        users, _, family = make_users(6, 1, scheme, seed=41, task="regression",
                                      features=features, per_user=20)
        return users, init_model(family, features), MechanismConfig(MechanismKind.WFDP, self.SIGMA2)

    @pytest.mark.parametrize("features", [11, 59], ids=["dense", "thin"])
    def test_covered_round_sums_to_isotropic(self, features):
        users, model, mech = self.setup(features)
        _, spectra, summed, noise_trace, _ = simulation.noise_round(
            model, Cohort(users), mech, 1.0, 5, 0, spectra=True
        )
        tail = 0.0
        for _ in users[1:]:  # slot by slot
            tail += self.SIGMA2
        assert np.array_equal(summed, np.full(model.dim, tail))
        ops = ModelOps(model.family)
        lifts = 0.0
        for user, spectrum in zip(users[1:], spectra):
            cols = mechanisms.clipped_gradients(design(user.features)[None], user.labels[None],
                                                ops, model.theta, 1.0).columns[0]
            moment = cols @ cols.T / (5 * cols.shape[1])
            # the spectrum is the second moment's, and every eigenvalue is lifted to sigma^2
            reference = np.linalg.eigvalsh(moment)[::-1]
            assert np.allclose(spectrum, reference, rtol=1e-12, atol=1e-12 * reference[0])
            assert spectrum[0] <= self.SIGMA2
            lifts += model.dim * self.SIGMA2 - np.trace(moment)
        assert noise_trace == pytest.approx(lifts, rel=1e-12)

    @pytest.mark.parametrize("features", [11, 59], ids=["dense", "thin"])
    def test_covered_users_are_not_decomposed(self, monkeypatch, features):
        # a regression guard: eigh runs only for the sensitive user's dense
        # estimate, which its Gaussian-sampled update is drawn from; a thin
        # update is drawn from its gradients, so a thin round decomposes nothing
        calls = []
        for name in ("eigh", "qr"):
            def counting(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls.append((_name, a.shape))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(spectra_module.np.linalg, name, counting)
        users, model, mech = self.setup(features)
        params = PrivacyParams(clip=1.0, batch=5, local_size=20, ns_users=5, delta=1e-3,
                               floor=self.SIGMA2)
        run_round(model, users, mech, params, ROUTES["closed_form:general"], master_seed=5,
                  round_index=0)
        dim, count = model.dim, 20
        if 2 * count > dim:
            assert calls == [("eigh", (1, dim, dim))]
        else:
            assert calls == []

    @pytest.mark.parametrize("features", [11, 59], ids=["dense", "thin"])
    @pytest.mark.parametrize("covering", ["all", "some"])
    @pytest.mark.parametrize("scheme_kind", [SchemeKind.GAUSSIAN_SAMPLED, SchemeKind.IID_SGD,
                                             SchemeKind.FEDAVG])
    def test_asking_for_spectra_changes_no_other_result(self, scheme_kind, features, covering):
        users, model, _ = self.setup(features, scheme_kind)
        sigma2 = self.SIGMA2
        if covering == "some":  # the median of the users' largest eigenvalues
            mech = MechanismConfig(MechanismKind.WFDP, sigma2)
            _, spectra, _, _, _ = simulation.noise_round(model, Cohort(users), mech, 1.0, 5, 0,
                                                         spectra=True)
            sigma2 = float(np.median(spectra[:, 0]))
        mech = MechanismConfig(MechanismKind.WFDP, sigma2)
        (sent, none, summed, trace, _), (sent_asked, spectra, summed_asked, trace_asked, _) = [
            simulation.noise_round(model, Cohort(users), mech, 1.0, 5, 0, spectra=asked)
            for asked in (False, True)
        ]
        assert none is None and spectra.shape == (len(users) - 1, model.dim)
        assert [x.tobytes() for x in sent] == [x.tobytes() for x in sent_asked]
        assert summed.tobytes() == summed_asked.tobytes()
        assert np.float64(trace).tobytes() == np.float64(trace_asked).tobytes()

    @pytest.mark.parametrize("scheme_kind", [SchemeKind.IID_SGD, SchemeKind.FEDAVG,
                                             SchemeKind.FULL_GD])
    def test_covered_dense_round_reads_no_eigenvalue(self, monkeypatch, scheme_kind):
        # only a Gaussian-sampled draw estimates the sensitive user, and the
        # isotropic sum needs no eigvalsh
        scheme = UpdateScheme(scheme_kind, batch=5, learning_rate=0.2, fedavg_samples=3)
        users, _, family = make_users(6, 1, scheme, seed=41, task="regression", features=11,
                                      per_user=20)
        mech = MechanismConfig(MechanismKind.WFDP, self.SIGMA2)
        params = PrivacyParams(clip=1.0, batch=5, local_size=20, ns_users=5, delta=1e-3,
                               floor=self.SIGMA2)

        def refused(*args, **kwargs):
            raise AssertionError("an eigenvalue was computed")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        monkeypatch.setattr(np.linalg, "eigh", refused)
        outcome = run_round(init_model(family, 11), users, mech, params,
                            ROUTES["closed_form:general"], master_seed=5, round_index=0)
        tail = 0.0
        for _ in users[1:]:  # slot by slot
            tail += self.SIGMA2
        assert outcome.lambda_min == tail

    def test_covered_wide_stack_factors_nothing(self, monkeypatch):
        # one stack of 12 users with 101 coordinates and 100 gradients each, as
        # in a wide run: row sums and the product's shape clear it, so coverage
        # takes no Cholesky factorization and reads no eigenvalue
        scheme = UpdateScheme(SchemeKind.GAUSSIAN_SAMPLED, batch=10, learning_rate=0.2)
        users, _, family = make_users(13, 1, scheme, seed=3, task="regression", features=100,
                                      per_user=100)
        model = init_model(family, 100)
        cohort = Cohort(users)
        assert [len(stack.slots) for stack in cohort.stacks] == [1, 12]
        calls = []
        for name in ("cholesky", "eigvalsh"):
            def counting(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        mech = MechanismConfig(MechanismKind.WFDP, 0.01)
        _, _, summed, _, _ = simulation.noise_round(model, cohort, mech, 1.0, 3, 0)
        assert calls == []
        tail = 0.0
        for _ in users[1:]:  # every member covered: the sum is isotropic
            tail += 0.01
        assert np.array_equal(summed, np.full(model.dim, tail))


class TestMechanismConfig:
    @pytest.mark.parametrize("kind", [MechanismKind.WFDP, MechanismKind.WFNA, MechanismKind.DDP])
    def test_noising_mechanisms_need_a_positive_sigma2(self, kind):
        with pytest.raises(ConfigError, match=f"mechanism.sigma2 must be > 0 for {kind.value}"):
            MechanismConfig(kind, 0.0)
        assert MechanismConfig(kind, 0.02).sigma2 == 0.02

    def test_none_takes_no_sigma2(self):
        # none adds no noise, so a sigma2 there would be reported and never applied
        with pytest.raises(ConfigError, match="mechanism.sigma2: none adds no noise"):
            MechanismConfig(MechanismKind.NONE, 0.5)
        assert MechanismConfig(MechanismKind.NONE).floor == 0.0


def workspace(cohort):
    """Views of the cohort's two round buffers; the largest stack's cover them whole."""
    return [view for stack in cohort.stacks for view in (stack.gradients, stack.moments)]


def arrays_of(*results):
    """Every array in (nested) round results: vectors, traces and models' fields."""
    found = []
    for item in results:
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            found.extend(arrays_of(*item))
        elif isinstance(item, mechanisms.NoisedUpdate):
            found.extend(arrays_of(item.vector, item.noise_trace, item.floored))
        elif isinstance(item, CovarianceModel):
            found.extend(arrays_of(item.mean, item.eigvecs, item.eigvals, item.tail))
    return found


class TestRoundWorkspace:
    """The cohort's round workspace changes no result and nothing returned views it."""

    SIGMA2 = 0.02

    def cohort(self, monkeypatch, scheme_kind):
        # with at most two users a stack, the stacks are (1, 10), (2, 30), (1, 30), (2, 10)
        # and (1, 12): D = 30 is dense at d = 40 and the others are thin, so each takes a
        # differently sized view of the buffers, and smaller stacks follow larger ones
        monkeypatch.setattr(simulation, "_STACK_BYTES", 2 * 8 * 40 * 40)
        scheme = UpdateScheme(scheme_kind, batch=5, learning_rate=0.2, fedavg_samples=3)
        users, _, family = make_users(7, 1, scheme, seed=4, task="regression", features=39,
                                      per_user=30)
        sizes = [10, 30, 30, 30, 10, 10, 12]
        users = [UserState(u.user_id, u.role, u.features[:n], u.labels[:n], u.scheme)
                 for u, n in zip(users, sizes)]
        cohort = Cohort(users)
        assert [stack.phi.shape[:2] for stack in cohort.stacks] == [
            (1, 10), (2, 30), (1, 30), (2, 10), (1, 12)
        ]
        return cohort, family

    @staticmethod
    def without_workspace(cohort):
        """The same cohort with every stack's products made in new arrays (``out=None``)."""
        reference = Cohort(cohort.users)
        reference.stacks = [dataclasses.replace(stack, gradients=None, moments=None)
                            for stack in reference.stacks]
        return reference

    @pytest.mark.parametrize("spectra", [True, False], ids=["spectra", "certificate"])
    @pytest.mark.parametrize("mech_name", ["wfdp", "ddp"])
    @pytest.mark.parametrize("scheme_kind", list(SchemeKind))
    def test_two_rounds_match_new_arrays(self, monkeypatch, scheme_kind, mech_name, spectra):
        cohort, family = self.cohort(monkeypatch, scheme_kind)
        reference = self.without_workspace(cohort)
        mech = MechanismConfig(MechanismKind(mech_name), self.SIGMA2)
        params = PrivacyParams(clip=1.0, batch=5, local_size=10, ns_users=6, delta=1e-3,
                               floor=mech.floor)
        model = init_model(family, 39)
        for t in range(2):
            got = simulation.noise_round(model, cohort, mech, 1.0, 5, t, spectra=spectra)
            want = simulation.noise_round(model, reference, mech, 1.0, 5, t, spectra=spectra)
            assert all(same_bits(a, b) for a, b in zip(got[0], want[0]))
            assert (got[1] is None) is (not spectra)
            if spectra:
                assert same_bits(got[1], want[1])
            assert same_bits(got[2], want[2]) and got[3:] == want[3:]
            assert not any(np.shares_memory(a, view)
                           for a in arrays_of(got) for view in workspace(cohort))
            route = ROUTES["theorem1_rdp" if spectra else "closed_form:general"]
            outcome = run_round(model, cohort, mech, params, route, 5, t)
            expected = run_round(model, reference, mech, params, route, 5, t)
            assert outcome.entry == expected.entry and outcome.train_loss == expected.train_loss
            assert same_bits(outcome.model.theta, expected.model.theta)
            assert not any(np.shares_memory(outcome.model.theta, view) for view in workspace(cohort))
            model = outcome.model

    @pytest.mark.parametrize("scheme_kind", list(SchemeKind))
    def test_no_update_or_model_views_the_workspace(self, monkeypatch, scheme_kind):
        cohort, family = self.cohort(monkeypatch, scheme_kind)
        ops, theta = ModelOps(family), np.full(40, 0.1)
        for stack in cohort.stacks:
            rngs = [np.random.default_rng(slot) for slot in stack.slots]
            results = [simulation.user_update(stack, ops, theta, 1.0, rngs)]
            if stack.role is Role.NON_SENSITIVE:
                rngs = [np.random.default_rng(slot) for slot in stack.slots]
                results.append(simulation.floored_update(stack, ops, theta, 1.0, self.SIGMA2,
                                                         rngs, spectra=True))
            found = arrays_of(results)
            assert found and not any(np.shares_memory(a, view)
                                     for a in found for view in workspace(cohort))


class TestMemoryGuard:
    """A wide-shaped run holds its data once, and a round's temporaries scale with a stack.

    Bounds measured on this test's run (numpy 2.4, tracemalloc): building the
    users and the cohort traced a peak 141 KB above the block, labels and eval
    set (106 KB of it the workspace), and held as much after it; the second
    round peaked 3.85 x _STACK_BYTES above its start. With each user's data
    copied into the cohort and no workspace, the same run's build peaked
    1.19 MB above them and its round at 5.20 x.
    """

    BUDGET = 1 << 16
    ROUND_PEAK = 4.5  # times _STACK_BYTES

    def run(self):
        spec = SyntheticSpec(task="regression", features=30, per_user=40, eval_size=100)
        scheme = UpdateScheme(SchemeKind.GAUSSIAN_SAMPLED, batch=10, learning_rate=0.1)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        data, eval_data, _ = make_synthetic(spec, 60, np.random.default_rng(3))
        users = [UserState(i, Role.SENSITIVE if i == 0 else Role.NON_SENSITIVE, f, y, scheme)
                 for i, (f, y) in enumerate(data)]
        cohort = Cohort(users, data)
        built, built_peak = (m - start for m in tracemalloc.get_traced_memory())
        mech = MechanismConfig(MechanismKind.WFDP, 0.01)
        params = PrivacyParams(clip=1.0, batch=10, local_size=40, ns_users=59, delta=1e-3,
                               floor=mech.floor)
        route = ROUTES["closed_form:general"]
        outcome = run_round(init_model(spec.family, 30), cohort, mech, params, route, 3, 0,
                            eval_data)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_round(outcome.model, cohort, mech, params, route, 3, 1, eval_data)
        round_peak = tracemalloc.get_traced_memory()[1] - start
        held = 8 * (60 * 40 * 31 + 60 * 40 + 100 * 31 + 100)  # block, labels, eval set
        return held, built, built_peak, round_peak

    def test_data_once_and_round_within_its_stacks(self, monkeypatch):
        monkeypatch.setattr(simulation, "_STACK_BYTES", self.BUDGET)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            self.run()  # first calls import lazily and fill caches
            held, built, built_peak, round_peak = self.run()
        finally:
            if not tracing:
                tracemalloc.stop()
        # the slack: the workspace's two buffers, at most _STACK_BYTES each, and 64 KiB
        slack = 2 * self.BUDGET + (1 << 16)
        assert built <= built_peak <= held + slack
        assert round_peak <= self.ROUND_PEAK * self.BUDGET
