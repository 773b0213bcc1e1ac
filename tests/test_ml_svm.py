"""Tests for the from-scratch SVM (SMO solver)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.kernels import LinearKernel, PolynomialKernel, RbfKernel
from repro.ml.svm import BinarySVM, SupportVectorClassifier


def blobs(rng, centers, n_per=40, spread=0.6):
    X = np.vstack([rng.normal(c, spread, size=(n_per, len(c))) for c in centers])
    y = np.concatenate([np.full(n_per, i) for i in range(len(centers))])
    return X, y


class TestBinarySVM:
    def test_separable_problem_perfectly_classified(self):
        rng = np.random.default_rng(0)
        X, y01 = blobs(rng, [(-3.0, 0.0), (3.0, 0.0)], spread=0.4)
        y = np.where(y01 == 0, -1.0, 1.0)
        model = BinarySVM(c=10.0, kernel=LinearKernel()).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_xor_needs_rbf(self):
        """Linear fails XOR, RBF solves it - classic kernel check."""
        X = np.array(
            [[0, 0], [1, 1], [0, 1], [1, 0]] * 10, dtype=float
        ) + np.random.default_rng(1).normal(0, 0.05, (40, 2))
        y = np.array([-1, -1, 1, 1] * 10, dtype=float)
        rbf = BinarySVM(c=10.0, kernel=RbfKernel(gamma=2.0)).fit(X, y)
        assert np.mean(rbf.predict(X) == y) > 0.95

    def test_decision_function_sign_matches_predict(self):
        rng = np.random.default_rng(2)
        X, y01 = blobs(rng, [(-2.0, 0.0), (2.0, 0.0)])
        y = np.where(y01 == 0, -1.0, 1.0)
        model = BinarySVM(c=1.0).fit(X, y)
        scores = model.decision_function(X)
        np.testing.assert_array_equal(np.sign(scores) >= 0, model.predict(X) == 1.0)

    def test_support_vectors_subset_of_training(self):
        rng = np.random.default_rng(3)
        X, y01 = blobs(rng, [(-2.0, 0.0), (2.0, 0.0)])
        y = np.where(y01 == 0, -1.0, 1.0)
        model = BinarySVM(c=1.0).fit(X, y)
        assert 0 < model.n_support_ <= X.shape[0]
        for sv in model.support_vectors_:
            assert any(np.allclose(sv, row) for row in X)

    def test_dual_coefficients_bounded_by_c(self):
        rng = np.random.default_rng(4)
        X, y01 = blobs(rng, [(-1.0, 0.0), (1.0, 0.0)], spread=1.0)
        y = np.where(y01 == 0, -1.0, 1.0)
        c = 2.5
        model = BinarySVM(c=c).fit(X, y)
        assert np.all(np.abs(model.dual_coef_) <= c + 1e-6)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        X, y01 = blobs(rng, [(-1.0, 0.0), (1.0, 0.0)], spread=1.2)
        y = np.where(y01 == 0, -1.0, 1.0)
        a = BinarySVM(c=1.0, seed=7).fit(X, y)
        b = BinarySVM(c=1.0, seed=7).fit(X, y)
        np.testing.assert_allclose(
            a.decision_function(X), b.decision_function(X)
        )

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            BinarySVM().fit(np.ones((5, 2)), np.ones(5))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            BinarySVM().fit(np.ones((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            BinarySVM().fit(np.ones((4, 2)), np.array([-1.0, 1.0]))

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            BinarySVM(c=0.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            BinarySVM().predict(np.ones((1, 2)))

    def test_single_sample_prediction_shape(self):
        rng = np.random.default_rng(6)
        X, y01 = blobs(rng, [(-2.0, 0.0), (2.0, 0.0)])
        y = np.where(y01 == 0, -1.0, 1.0)
        model = BinarySVM().fit(X, y)
        assert model.predict(np.array([0.5, 0.0])).shape == (1,)


class TestKktConditions:
    """The trained solution must satisfy the soft-margin KKT system -
    the mathematical definition of 'SMO converged correctly'."""

    def trained(self, seed=0, c=2.0):
        rng = np.random.default_rng(seed)
        X, y01 = blobs(rng, [(-1.5, 0.0), (1.5, 0.0)], n_per=30, spread=1.0)
        y = np.where(y01 == 0, -1.0, 1.0)
        model = BinarySVM(c=c, kernel=RbfKernel(gamma=0.5), tol=1e-4)
        model.fit(X, y)
        return model, X, y

    def test_dual_balance(self):
        """sum_i alpha_i y_i = 0 (the equality constraint)."""
        model, X, y = self.trained()
        assert abs(model.dual_coef_.sum()) < 1e-6

    def test_margin_conditions(self):
        """Non-bound SVs sit on the margin; bound ones inside it;
        non-SVs outside.  Checked via y_i f(x_i)."""
        model, X, y = self.trained()
        c = model.c
        margins = y * model.decision_function(X)
        # Recover per-sample alpha from the stored SV coefficients.
        alphas = np.zeros(len(X))
        for coef, sv in zip(model.dual_coef_, model.support_vectors_):
            idx = next(
                i for i, row in enumerate(X)
                if np.allclose(row, sv) and alphas[i] == 0.0
            )
            alphas[idx] = abs(coef)
        tol = 5e-2
        for alpha, margin in zip(alphas, margins):
            if alpha < 1e-8:
                assert margin >= 1.0 - tol  # correctly outside margin
            elif alpha > c - 1e-8:
                assert margin <= 1.0 + tol  # bound: inside/violating
            else:
                assert abs(margin - 1.0) < tol  # free SV: on the margin


class TestMulticlassSVC:
    def test_three_class_blobs(self):
        rng = np.random.default_rng(0)
        X, y = blobs(rng, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)])
        labels = np.array(["a", "b", "c"])[y.astype(int)]
        model = SupportVectorClassifier(c=10.0).fit(X, labels)
        assert model.score(X, labels) > 0.95

    def test_string_labels_roundtrip(self):
        rng = np.random.default_rng(1)
        X, y = blobs(rng, [(0.0, 0.0), (5.0, 0.0)])
        labels = np.array(["kitchen", "living"])[y.astype(int)]
        model = SupportVectorClassifier().fit(X, labels)
        assert set(model.predict(X)) <= {"kitchen", "living"}

    def test_number_of_pairwise_machines(self):
        rng = np.random.default_rng(2)
        X, y = blobs(rng, [(0, 0), (4, 0), (0, 4), (4, 4)], n_per=20)
        model = SupportVectorClassifier(c=5.0).fit(X, y)
        assert len(model._machines) == 6  # C(4, 2)

    def test_classes_sorted(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, [(0, 0), (5, 0)])
        labels = np.array(["zebra", "apple"])[y.astype(int)]
        model = SupportVectorClassifier().fit(X, labels)
        assert model.classes_ == ["apple", "zebra"]

    def test_clone_is_unfitted_with_same_params(self):
        model = SupportVectorClassifier(c=3.0, kernel=RbfKernel(0.2))
        clone = model.clone()
        assert clone.c == 3.0
        assert clone.kernel.gamma == 0.2
        with pytest.raises(RuntimeError):
            clone.predict(np.ones((1, 2)))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            SupportVectorClassifier().fit(np.ones((5, 2)), ["a"] * 5)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SupportVectorClassifier().predict(np.ones((1, 2)))

    def test_generalises_to_held_out_data(self):
        rng = np.random.default_rng(4)
        X, y = blobs(rng, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)], n_per=60)
        X_test, y_test = blobs(rng, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)], n_per=20)
        model = SupportVectorClassifier(c=10.0).fit(X, y)
        assert model.score(X_test, y_test) > 0.85

    def test_n_support_total_positive(self):
        rng = np.random.default_rng(5)
        X, y = blobs(rng, [(0.0, 0.0), (4.0, 0.0)])
        model = SupportVectorClassifier().fit(X, y)
        assert model.n_support_total > 0


class TestBatchedPrediction:
    """The shared-Gram batch path must agree with per-row prediction."""

    @staticmethod
    def _fingerprint_model(n_classes=3, seed=0):
        rng = np.random.default_rng(seed)
        centers = [tuple(rng.uniform(0.0, 8.0, size=4)) for _ in range(n_classes)]
        X, y = blobs(rng, centers, n_per=25, spread=0.8)
        labels = np.array([f"room-{int(k)}" for k in y])
        return SupportVectorClassifier(c=10.0, kernel=RbfKernel(0.5)).fit(X, labels)

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_per_row_over_random_fingerprints(self, query_seed):
        model = self._fingerprint_model()
        rng = np.random.default_rng(query_seed)
        X = rng.uniform(-2.0, 10.0, size=(17, 4))
        batched = model.predict(X)
        per_row = np.asarray(
            [model.predict(row.reshape(1, -1))[0] for row in X]
        )
        np.testing.assert_array_equal(batched, per_row)

    def test_sv_bank_deduplicates_shared_support_vectors(self):
        model = self._fingerprint_model(n_classes=4, seed=3)
        bank_rows = model._sv_bank.shape[0]
        total_sv = model.n_support_total
        assert 0 < bank_rows <= total_sv
        for p, machine in enumerate(model._machines.values()):
            # Each machine's duals sit in its own bank columns of the
            # dense coefficient matrix, in support-vector order.
            cols = np.flatnonzero(model._dual_coef[p])
            assert len(cols) == machine.n_support_
            np.testing.assert_array_equal(
                model._dual_coef[p, cols], machine.dual_coef_
            )
            np.testing.assert_allclose(
                model._sv_bank[cols], machine.support_vectors_
            )

    def test_sv_sq_norms_cached_per_machine(self):
        model = self._fingerprint_model()
        for machine in model._machines.values():
            np.testing.assert_allclose(
                machine._sv_sq_norms,
                np.sum(machine.support_vectors_ ** 2, axis=1),
            )

    def test_batch_path_matches_per_machine_decision_functions(self):
        """Predictions from the shared Gram equal the legacy per-machine
        path (the bank is an optimisation, not a semantic change)."""
        model = self._fingerprint_model(seed=7)
        rng = np.random.default_rng(11)
        X = rng.uniform(0.0, 8.0, size=(32, 4))
        np.testing.assert_array_equal(
            model.predict(X), per_machine_vote_oracle(model, X)
        )


def per_machine_vote_oracle(model, X):
    """One-vs-one vote with one Python step per pairwise machine.

    The loop ``SupportVectorClassifier.predict`` ran before the fused
    decision matrix, kept here as the oracle the fused path must match:
    each machine scores ``X`` through its own ``decision_function``.
    """
    n = X.shape[0]
    votes = np.zeros((n, len(model.classes_)))
    scores = np.zeros((n, len(model.classes_)))
    for (a, b), machine in model._machines.items():
        decision = machine.decision_function(X)
        winner_a = decision >= 0.0
        votes[winner_a, a] += 1
        votes[~winner_a, b] += 1
        scores[:, a] += decision
        scores[:, b] -= decision
    ranking = votes + 1e-9 * np.tanh(scores)
    return np.asarray([model.classes_[w] for w in np.argmax(ranking, axis=1)])


def strip_support_vectors(model, pairs, intercepts=None):
    """Empty the given machines' support sets and rebuild the bank.

    A machine with no support vectors decides by its intercept alone;
    ``intercepts`` optionally overrides each stripped machine's.
    """
    y = model._fit_y
    sv_global = {}
    for (a, b), machine in model._machines.items():
        if (a, b) in pairs:
            machine.support_vectors_ = machine.support_vectors_[:0]
            machine.support_indices_ = machine.support_indices_[:0]
            machine.dual_coef_ = machine.dual_coef_[:0]
            machine.n_support_ = 0
            machine._sv_sq_norms = model.kernel.row_sq_norms(
                machine.support_vectors_
            )
            if intercepts is not None:
                machine.intercept_ = intercepts[(a, b)]
        pair_rows = np.flatnonzero(
            (y == model.classes_[a]) | (y == model.classes_[b])
        )
        sv_global[(a, b)] = pair_rows[machine.support_indices_]
    model._build_sv_bank(model._fit_X, sv_global)


FUSED_KERNELS = [
    LinearKernel(),
    PolynomialKernel(degree=2, gamma=0.2, coef0=1.0),
    RbfKernel(0.5),
]


class TestFusedPredict:
    """The fused decision matrix reproduces the per-machine vote."""

    @given(
        kernel=st.sampled_from(FUSED_KERNELS),
        n_classes=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
        after=st.sampled_from(["fit", "refresh", "warm refresh"]),
        stripped=st.one_of(st.none(), st.integers(min_value=0, max_value=14)),
    )
    @settings(max_examples=60, deadline=None)
    def test_fused_labels_equal_per_machine_oracle(
        self, kernel, n_classes, seed, after, stripped
    ):
        rng = np.random.default_rng(seed)
        centers = [tuple(rng.uniform(0.0, 4.0, size=3)) for _ in range(n_classes)]
        X, y = blobs(rng, centers, n_per=12, spread=0.8)
        labels = np.array([f"room-{int(k)}" for k in y])
        model = SupportVectorClassifier(c=5.0, kernel=kernel, max_iter=5_000)
        if after == "fit":
            model.fit(X, labels)
        else:
            # Hold back a few rows of one class and absorb them later,
            # so refresh mixes refitted and reused machines.
            held = np.flatnonzero(labels == labels[0])[-3:]
            keep = np.setdiff1d(np.arange(len(labels)), held)
            model.fit(X[keep], labels[keep])
            model.refresh(
                X[held], labels[held], warm_start=after == "warm refresh"
            )
        if stripped is not None:
            pairs = list(model._machines)
            strip_support_vectors(model, {pairs[stripped % len(pairs)]})
        Q = rng.uniform(-1.0, 5.0, size=(9, 3))
        fused = model.predict(Q)
        np.testing.assert_array_equal(fused, per_machine_vote_oracle(model, Q))
        per_row = [model.predict(row.reshape(1, -1))[0] for row in Q]
        np.testing.assert_array_equal(fused, np.asarray(per_row))

    @staticmethod
    def _three_class_model():
        rng = np.random.default_rng(0)
        X, y = blobs(rng, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)], n_per=10)
        return SupportVectorClassifier(c=5.0).fit(X, np.array(["a", "b", "c"])[y])

    @pytest.mark.parametrize(
        "d01, d02, d12, expected",
        [
            # Each class wins exactly one pair (a 1-1-1 vote tie); the
            # summed signed decisions then pick the winner.
            (0.5, -0.2, 0.1, "a"),  # scores a=+0.3, b=-0.4, c=+0.1
            (0.1, -0.5, 0.2, "c"),  # scores a=-0.4, b=+0.1, c=+0.3
            (0.1, -0.3, 0.4, "b"),  # scores a=-0.2, b=+0.3, c=-0.1
            # Votes and scores both tie: class order decides.
            (0.25, -0.25, 0.25, "a"),
        ],
    )
    def test_vote_tie_broken_by_summed_decisions(self, d01, d02, d12, expected):
        model = self._three_class_model()
        # Machines without support vectors decide -intercept everywhere.
        intercepts = {(0, 1): -d01, (0, 2): -d02, (1, 2): -d12}
        strip_support_vectors(model, set(intercepts), intercepts)
        Q = np.zeros((2, 2))
        np.testing.assert_array_equal(model.predict(Q), [expected, expected])
        np.testing.assert_array_equal(
            per_machine_vote_oracle(model, Q), [expected, expected]
        )

    def test_all_machines_without_support_vectors(self):
        """An empty bank still predicts: every machine votes on its
        intercept alone (here all zero, so the first class sweeps)."""
        rng = np.random.default_rng(1)
        X, y = blobs(rng, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)], n_per=10)
        model = SupportVectorClassifier(max_iter=0).fit(X, y)
        assert model._sv_bank.shape == (0, 2)
        Q = rng.uniform(0.0, 4.0, size=(5, 2))
        np.testing.assert_array_equal(model.predict(Q), [0] * 5)
        np.testing.assert_array_equal(
            model.predict(Q), per_machine_vote_oracle(model, Q)
        )
