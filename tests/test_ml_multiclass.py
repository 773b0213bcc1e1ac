"""Tests for the one-vs-rest multiclass reduction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.kernels import LinearKernel, PolynomialKernel, RbfKernel
from repro.ml.multiclass import OneVsRestClassifier
from repro.ml.svm import BinarySVM, SupportVectorClassifier


def blobs(rng, centers, n_per=30, spread=0.5):
    X = np.vstack([rng.normal(c, spread, size=(n_per, len(c))) for c in centers])
    y = np.array(sum([["c%d" % i] * n_per for i in range(len(centers))], []))
    return X, y


class TestOneVsRest:
    def test_three_class_accuracy(self):
        rng = np.random.default_rng(0)
        X, y = blobs(rng, [(0, 0), (4, 0), (0, 4)])
        model = OneVsRestClassifier(lambda: BinarySVM(c=5.0)).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_one_machine_per_class(self):
        rng = np.random.default_rng(1)
        X, y = blobs(rng, [(0, 0), (4, 0), (0, 4), (4, 4)])
        model = OneVsRestClassifier().fit(X, y)
        assert len(model._machines) == 4

    def test_decision_matrix_shape(self):
        rng = np.random.default_rng(2)
        X, y = blobs(rng, [(0, 0), (4, 0), (0, 4)])
        model = OneVsRestClassifier().fit(X, y)
        assert model.decision_matrix(X[:7]).shape == (7, 3)

    def test_agrees_with_ovo_on_easy_data(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, [(0, 0), (5, 0), (0, 5)], spread=0.4)
        ovr = OneVsRestClassifier(lambda: BinarySVM(c=10.0)).fit(X, y)
        ovo = SupportVectorClassifier(c=10.0).fit(X, y)
        agreement = np.mean(ovr.predict(X) == ovo.predict(X))
        assert agreement > 0.97

    def test_generalises(self):
        rng = np.random.default_rng(4)
        X, y = blobs(rng, [(0, 0), (4, 0)], n_per=50)
        Xt, yt = blobs(rng, [(0, 0), (4, 0)], n_per=15)
        model = OneVsRestClassifier().fit(X, y)
        assert model.score(Xt, yt) > 0.9

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            OneVsRestClassifier().predict(np.ones((1, 2)))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            OneVsRestClassifier().fit(np.ones((4, 2)), ["a"] * 4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OneVsRestClassifier().fit(np.ones((4, 2)), ["a", "b"])

    def test_clone_unfitted(self):
        model = OneVsRestClassifier().clone()
        with pytest.raises(RuntimeError):
            model.predict(np.ones((1, 2)))

    def test_custom_kernel_factory(self):
        rng = np.random.default_rng(5)
        X, y = blobs(rng, [(0, 0), (3, 0)])
        model = OneVsRestClassifier(
            lambda: BinarySVM(c=5.0, kernel=RbfKernel(gamma=1.0))
        ).fit(X, y)
        assert model.score(X, y) > 0.95


def per_machine_decision_oracle(model, X):
    """Per-class decision columns, one ``decision_function`` per machine
    (the oracle the fused coefficient-matrix contraction must match)."""
    return np.column_stack(
        [model._machines[cls].decision_function(X) for cls in model.classes_]
    )


class TestFusedDecisionMatrix:
    @given(
        kernel=st.sampled_from(
            [LinearKernel(), PolynomialKernel(degree=2, gamma=0.2), RbfKernel(0.5)]
        ),
        n_classes=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
        refresh=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_fused_equals_per_machine_oracle(self, kernel, n_classes, seed, refresh):
        rng = np.random.default_rng(seed)
        centers = [tuple(rng.uniform(0.0, 4.0, size=3)) for _ in range(n_classes)]
        X, y = blobs(rng, centers, n_per=10, spread=0.8)
        model = OneVsRestClassifier(
            lambda: BinarySVM(c=5.0, kernel=kernel, max_iter=5_000)
        )
        if refresh:
            model.fit(X[:-4], y[:-4]).refresh(X[-4:], y[-4:])
        else:
            model.fit(X, y)
        assert model._bank_kernel == kernel  # the fused path is taken
        Q = rng.uniform(-1.0, 5.0, size=(9, 3))
        oracle = per_machine_decision_oracle(model, Q)
        fused = model.decision_matrix(Q)
        np.testing.assert_allclose(fused, oracle, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(
            model.predict(Q), np.asarray(model.classes_)[oracle.argmax(axis=1)]
        )
        per_row = [model.predict(row.reshape(1, -1))[0] for row in Q]
        np.testing.assert_array_equal(model.predict(Q), np.asarray(per_row))

    def test_heterogeneous_machines_fall_back_per_machine(self):
        kernels = iter([RbfKernel(0.5), RbfKernel(1.0), RbfKernel(2.0)])
        rng = np.random.default_rng(6)
        X, y = blobs(rng, [(0, 0), (4, 0), (0, 4)])
        model = OneVsRestClassifier(
            lambda: BinarySVM(c=5.0, kernel=next(kernels, RbfKernel(0.5)))
        ).fit(X, y)
        assert model._bank_kernel is None
        np.testing.assert_array_equal(
            model.decision_matrix(X[:7]), per_machine_decision_oracle(model, X[:7])
        )
