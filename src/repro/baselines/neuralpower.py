"""NeuralPower-style polynomial baseline (Cai et al., 2017).

NeuralPower predicts per-layer runtime with learned *polynomial*
regressions over layer configuration features.  The paper's Section 5
critique is scope, not math: "it was designed for simple architectures
such as AlexNet and VGG and does not cover more complex and modern
structures such as ResNet."  This baseline realises the method at the
aggregate level — degree-2 polynomial expansion of the ConvMeter metrics —
so the comparison isolates what the extra polynomial terms buy (and cost:
more coefficients to fit, easier to overfit a small model pool).
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from repro.benchdata.records import ConvNetFeatures, Dataset, TimingRecord
from repro.core.metrics import EvalMetrics, evaluate_predictions
from repro.core.regression import LinearModel

_BASE_METRICS = ("flops", "inputs", "outputs")


def _base_row(features: ConvNetFeatures, batch: int) -> np.ndarray:
    return np.array(
        [batch * getattr(features, m) for m in _BASE_METRICS]
    )


def polynomial_row(
    features: ConvNetFeatures, batch: int, degree: int
) -> np.ndarray:
    """Polynomial expansion of the batch-scaled metrics plus intercept."""
    base = _base_row(features, batch)
    parts = [base]
    for d in range(2, degree + 1):
        # One index-matrix allocation per degree level (two for the common
        # degree-2 case) replaces one np.array per polynomial term; the
        # remaining allocation is the loop's irreducible working set.
        combos = np.array(
            list(combinations_with_replacement(range(base.size), d))
        )
        # Sequential column-by-column multiply reproduces np.prod's
        # left-to-right pairwise order, so every term stays bit-identical
        # to the scalar np.prod(base[list(combo)]) it replaces.
        prod = base[combos[:, 0]]
        for k in range(1, d):
            prod = prod * base[combos[:, k]]
        parts.append(prod)
    parts.append(np.ones(1))
    return np.concatenate(parts)


class NeuralPowerModel:
    """Degree-``degree`` polynomial regression over ConvMeter metrics."""

    def __init__(self, degree: int = 2, method: str = "ols") -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.model = LinearModel(method=method)

    def _design(self, records: Sequence[TimingRecord]) -> np.ndarray:
        X = np.empty((len(records), self.n_coefficients))
        for i, r in enumerate(records):
            X[i] = polynomial_row(r.features, r.batch, self.degree)
        return X

    def fit(self, data: Dataset | Sequence[TimingRecord]) -> "NeuralPowerModel":
        records = list(data)
        if not records:
            raise ValueError("cannot fit on an empty dataset")
        X = self._design(records)
        y = np.array([r.t_fwd for r in records])
        self.model.fit(X, y)
        return self

    def predict(self, data: Dataset | Sequence[TimingRecord]) -> np.ndarray:
        return self.model.predict(self._design(list(data)))

    def predict_one(self, features: ConvNetFeatures, batch: int) -> float:
        row = polynomial_row(features, batch, self.degree)
        return float(self.model.predict(row)[0])

    def evaluate(self, data: Dataset | Sequence[TimingRecord]) -> EvalMetrics:
        records = list(data)
        measured = np.array([r.t_fwd for r in records])
        return evaluate_predictions(measured, self.predict(records))

    @property
    def n_coefficients(self) -> int:
        return polynomial_row(
            ConvNetFeatures(1.0, 1.0, 1.0, 1.0, 1), 1, self.degree
        ).size
