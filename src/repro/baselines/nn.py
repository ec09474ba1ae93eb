"""Numpy neural-network core for the learned baseline predictors.

A small residual MLP regressor with manual forward/backward passes and a
full-batch Adam loop — everything the ResPerfNet/PreNeT stand-ins need,
with the determinism discipline the rest of the repo runs on:

* **Seeded Philox initialisation.**  Parameters come from
  ``np.random.Generator(np.random.Philox(seed))``; the post-init parameter
  fingerprint is recorded so an audit can replay the initialisation and
  prove an artifact's weights actually descend from its declared seed
  (audit rule FIT010).
* **Shape-invariant prediction.**  :meth:`ResidualMLP.predict` accumulates
  every matmul column by column, left to right — the same deliberate
  scalarization as :meth:`LinearModel.predict` — so predicting a batch of
  queries is bit-identical to predicting them one at a time.  The serve
  layer's batched-vs-sequential equivalence suite relies on this.
* **Deterministic training.**  Training uses fast ``np.matmul`` on the
  full (canonically ordered) batch; with identical inputs the whole loop
  is reproducible bit for bit, which the determinism property tests gate.

Architecture (``hidden > 0``)::

    z0 = X W_in + b_in;  a = tanh(z0)
    for each block:  a = a + (tanh(a W1 + b1)) W2 + b2      # residual
    y  = a w_out + b_out

``hidden == 0`` degrades the network to an affine map ``y = X w + b`` —
the linear special case the differential tests pin against
:class:`~repro.core.regression.LinearModel`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

#: Adam hyper-parameters (fixed; not worth exposing per predictor).
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def philox(seed: int) -> np.random.Generator:
    """The repo's counter-based generator for seeded parameter init."""
    return np.random.Generator(np.random.Philox(seed))


def params_fingerprint(params: Sequence[np.ndarray]) -> str:
    """Content hash of a parameter list (shape- and byte-exact).

    Used twice: once right after seeded initialisation (``FIT010`` replays
    it to verify the artifact's weights descend from its declared seed) and
    once over the trained parameters (a tamper-evident artifact digest).
    """
    h = hashlib.blake2b(digest_size=16)
    for p in params:
        arr = np.ascontiguousarray(p, dtype=np.float64)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def stable_matmul(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``X @ W`` with a fixed, shape-invariant reduction order.

    BLAS picks a different summation order for an ``(N, k)`` matmul than
    for a single row, so the same query could predict differently alone vs
    inside a batch.  Accumulating input columns left to right makes the
    reduction order independent of ``N`` — row ``i`` of the result is
    bit-identical whether computed alone or stacked.  The column loop is a
    deliberate scalarization over the (small) feature axis, exactly like
    ``LinearModel.predict``; ``X @ W`` is precisely what must not happen
    on this path.
    """
    out = np.empty((X.shape[0], W.shape[1]), dtype=np.float64)
    for j in range(W.shape[1]):
        total = X[:, 0] * W[0, j]
        for k in range(1, X.shape[1]):
            total = total + X[:, k] * W[k, j]
        out[:, j] = total
    return out


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one Adam training run."""

    epochs: int = 400
    lr: float = 0.02
    #: Early-stopping patience in epochs; <= 0 disables early stopping.
    patience: int = 50


@dataclass
class FitHistory:
    """What the training loop did (exposed for tests and leaderboard logs)."""

    epochs_run: int = 0
    best_epoch: int = 0
    train_loss: float = float("nan")
    val_loss: float | None = None
    losses: list[float] = field(default_factory=list)


class ResidualMLP:
    """A residual tanh MLP (``hidden == 0`` → plain affine regression)."""

    def __init__(
        self, n_features: int, hidden: int, blocks: int, seed: int
    ) -> None:
        if n_features < 1:
            raise ValueError("need at least one input feature")
        if hidden < 0 or blocks < 0:
            raise ValueError("hidden and blocks must be >= 0")
        self.n_features = n_features
        self.hidden = hidden
        self.blocks = blocks if hidden > 0 else 0
        self.seed = seed
        self.params = self._init_params(philox(seed))
        #: Fingerprint of the freshly-initialised parameters; FIT010
        #: replays the seeded init and compares against this.
        self.init_fingerprint = params_fingerprint(self.params)

    # -- parameters --------------------------------------------------------

    def _init_params(self, rng: np.random.Generator) -> list[np.ndarray]:
        """Scaled-normal init, one draw order fixed by construction."""
        k, h = self.n_features, self.hidden
        if h == 0:
            return [
                rng.standard_normal(k) * np.sqrt(1.0 / k),
                np.zeros(1),
            ]
        params = [
            rng.standard_normal((k, h)) * np.sqrt(1.0 / k),
            np.zeros(h),
        ]
        for _ in range(self.blocks):
            params.append(rng.standard_normal((h, h)) * np.sqrt(1.0 / h))
            params.append(np.zeros(h))
            # Second block matmul starts at zero so every block begins as
            # the identity map — the residual path is exact at init.
            params.append(np.zeros((h, h)))
            params.append(np.zeros(h))
        params.append(rng.standard_normal(h) * np.sqrt(1.0 / h))
        params.append(np.zeros(1))
        return params

    def replay_init_fingerprint(self) -> str:
        """Fingerprint of a fresh seeded init with this net's shape."""
        return params_fingerprint(self._init_params(philox(self.seed)))

    def parameter_vector(self) -> np.ndarray:
        """All parameters flattened (audit rule FIT008 scans this)."""
        return np.concatenate([np.ravel(p) for p in self.params])

    def params_to_jsonable(self) -> list[dict[str, Any]]:
        return [
            {"shape": list(p.shape), "data": np.ravel(p).tolist()}
            for p in self.params
        ]

    def load_params(self, serialized: Sequence[dict[str, Any]]) -> None:
        params = []
        for spec in serialized:
            arr = np.asarray(spec["data"], dtype=np.float64)
            params.append(arr.reshape([int(s) for s in spec["shape"]]))
        expected = [p.shape for p in self.params]
        got = [p.shape for p in params]
        if expected != got:
            raise ValueError(
                f"parameter shapes {got} do not match architecture "
                f"{expected}"
            )
        self.params = params

    # -- forward / backward ------------------------------------------------

    def _forward_train(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Fast full-batch forward; returns (yhat, block caches, a0)."""
        p = self.params
        if self.hidden == 0:
            return X @ p[0] + p[1][0], [], X
        a = np.tanh(X @ p[0] + p[1])
        a0 = a
        caches: list[tuple[np.ndarray, np.ndarray]] = []
        for i in range(self.blocks):
            w1, b1, w2, b2 = p[2 + 4 * i: 6 + 4 * i]
            h = np.tanh(a @ w1 + b1)
            caches.append((a, h))
            a = a + h @ w2 + b2
        yhat = a @ p[-2] + p[-1][0]
        return yhat, caches, a0

    def _backward(
        self,
        X: np.ndarray,
        y: np.ndarray,
        yhat: np.ndarray,
        caches: list[tuple[np.ndarray, np.ndarray]],
        a0: np.ndarray,
    ) -> list[np.ndarray]:
        """Gradients of the mean-squared error, matching ``params`` layout."""
        p = self.params
        n = X.shape[0]
        g = (2.0 / n) * (yhat - y)
        if self.hidden == 0:
            return [X.T @ g, np.array([g.sum()])]
        grads: list[np.ndarray | None] = [None] * len(p)
        # The final activation is recomputed cheaply from the last block's
        # cache (or is a0 when there are no blocks) instead of being stored.
        a_last = (
            caches[-1][0] + caches[-1][1] @ p[-4] + p[-3] if caches else a0
        )
        grads[-2] = a_last.T @ g
        grads[-1] = np.array([g.sum()])
        da = g[:, None] * p[-2][None, :]
        for i in range(self.blocks - 1, -1, -1):
            w1, _b1, w2, _b2 = p[2 + 4 * i: 6 + 4 * i]
            a_in, h = caches[i]
            dz2 = da
            grads[4 + 4 * i] = h.T @ dz2
            grads[5 + 4 * i] = dz2.sum(axis=0)
            dh = dz2 @ w2.T
            dz1 = dh * (1.0 - h * h)
            grads[2 + 4 * i] = a_in.T @ dz1
            grads[3 + 4 * i] = dz1.sum(axis=0)
            da = da + dz1 @ w1.T
        dz0 = da * (1.0 - a0 * a0)
        grads[0] = X.T @ dz0
        grads[1] = dz0.sum(axis=0)
        return grads  # type: ignore[return-value]

    # -- training ----------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        val_mask: np.ndarray | None = None,
        config: TrainConfig = TrainConfig(),
    ) -> FitHistory:
        """Full-batch Adam on the MSE; early-stops on the validation fold.

        ``val_mask`` marks held-out rows (None/empty = train on everything,
        run all epochs).  The best-validation parameters are restored at
        the end, so two fits from identical inputs are bit-identical.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if val_mask is not None and bool(val_mask.any()) and not bool(
            val_mask.all()
        ):
            X_train, y_train = X[~val_mask], y[~val_mask]
            X_val, y_val = X[val_mask], y[val_mask]
        else:
            X_train, y_train = X, y
            X_val = y_val = None
        m = [np.zeros_like(p) for p in self.params]
        v = [np.zeros_like(p) for p in self.params]
        history = FitHistory()
        best_val = np.inf
        best_params: list[np.ndarray] | None = None
        stale = 0
        for epoch in range(1, config.epochs + 1):
            yhat, caches, a0 = self._forward_train(X_train)
            grads = self._backward(X_train, y_train, yhat, caches, a0)
            b1c = 1.0 - _ADAM_BETA1 ** epoch
            b2c = 1.0 - _ADAM_BETA2 ** epoch
            for j, grad in enumerate(grads):
                m[j] = _ADAM_BETA1 * m[j] + (1.0 - _ADAM_BETA1) * grad
                v[j] = _ADAM_BETA2 * v[j] + (1.0 - _ADAM_BETA2) * grad * grad
                self.params[j] = self.params[j] - config.lr * (
                    (m[j] / b1c) / (np.sqrt(v[j] / b2c) + _ADAM_EPS)
                )
            train_loss = float(np.mean((yhat - y_train) ** 2))
            history.losses.append(train_loss)
            history.epochs_run = epoch
            history.train_loss = train_loss
            if X_val is None:
                history.best_epoch = epoch
                continue
            val_pred = self._forward_train(X_val)[0]
            val_loss = float(np.mean((val_pred - y_val) ** 2))
            history.val_loss = val_loss
            if val_loss < best_val:
                best_val = val_loss
                best_params = [p.copy() for p in self.params]
                history.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if config.patience > 0 and stale >= config.patience:
                    break
        if best_params is not None:
            self.params = best_params
            history.val_loss = best_val
        return history

    # -- prediction --------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Shape-invariant forward pass (see :func:`stable_matmul`)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"query has {X.shape[1]} features, network expects "
                f"{self.n_features}"
            )
        p = self.params
        if self.hidden == 0:
            return stable_matmul(X, p[0][:, None])[:, 0] + p[1][0]
        a = np.tanh(stable_matmul(X, p[0]) + p[1])
        for i in range(self.blocks):
            w1, b1, w2, b2 = p[2 + 4 * i: 6 + 4 * i]
            h = np.tanh(stable_matmul(a, w1) + b1)
            a = a + stable_matmul(h, w2) + b2
        return stable_matmul(a, p[-2][:, None])[:, 0] + p[-1][0]
