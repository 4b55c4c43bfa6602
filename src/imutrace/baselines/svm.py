"""One-vs-rest RBF support vector machine trained by SMO.

Each of the four classes gets a binary machine (class vs rest) solved
in the dual by sequential minimal optimization with LIBSVM's
second-order working-set selection (WSS2: Fan, Chen and Lin, JMLR
2005). Each iteration takes i as the maximal violator, j as the
violating partner that promises the largest objective decrease, and
moves the pair along y^T alpha = 0, clipped to the box [0, C]. Training
stops when the maximal violating pair's gap falls below ``tol`` or after
``max_passes * n`` iterations, whichever comes first; there is no RNG,
so training is deterministic. A machine's ``sweeps`` counts its
iterations (the field kept the name of the per-pass sweeps of the
first-order solver WSS2 replaced). Each iteration is a few O(n) numpy
operations on the gradient vector, with no per-point Python loop.

Features are standardized by training-set statistics by default; with
mixed physical units (m/s^2, rad/s, uT) the raw kernel distances would
be dominated by whichever axes happen to have the largest spread.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from ..core import N_CLASSES, TrajectoryLabel
from ..errors import DataError
from .features import argmax_labels, data_digest, feature_rows, standardizer, training_set

# Duals below this are treated as zero when extracting support vectors.
ALPHA_EPS = 1e-12
# The floor on a pair's curvature K_ii + K_jj - 2 K_ij, as in LIBSVM.
TAU = 1e-12


@dataclass(frozen=True)
class SvmConfig:
    c: float = 1.0
    gamma: Optional[float] = None  # None: 1 / (n_features * var(X))
    tol: float = 1e-3  # stop below this maximal-violating-pair gap
    # caps the iterations at max_passes * n; the name, kept for the run
    # manifest's baseline_configs, is from the per-pass sweep solver
    max_passes: int = 500
    standardize: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise DataError(f"C must be positive and finite, got {self.c}")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise DataError(f"gamma must be positive and finite or None, got {self.gamma}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise DataError(f"tolerance must be positive and finite, got {self.tol}")
        if self.max_passes < 1:
            raise DataError(f"max_passes must be >= 1, got {self.max_passes}")


@dataclass(frozen=True)
class BinarySvm:
    """One class-vs-rest machine: support vectors, duals times labels, bias."""

    sv: np.ndarray  # (m, d) standardized support vectors
    coef: np.ndarray  # (m,) alpha_i * y_i
    bias: float
    converged: bool  # max KKT violation, recomputed from scratch, <= tol
    sweeps: int  # WSS2 iterations (0 for a one-sided machine)

    def __post_init__(self):
        object.__setattr__(self, "sv", np.asarray(self.sv, dtype=np.float64))
        object.__setattr__(self, "coef", np.asarray(self.coef, dtype=np.float64))
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "converged", bool(self.converged))
        object.__setattr__(self, "sweeps", int(self.sweeps))
        if self.coef.shape != self.sv.shape[:1]:
            raise DataError(
                f"a machine needs one coefficient per support vector, got "
                f"{self.coef.shape} for support vectors of shape {self.sv.shape}"
            )


@dataclass(frozen=True)
class SvmModel:
    """A trained SVM; its fields are the keys of its model file.

    ``machines`` may be given as dicts of ``BinarySvm`` fields, as a
    model file holds them; their support vectors take the shape
    (m, n_features), so a machine with none keeps its width.
    """

    kind: str
    config: SvmConfig
    n_features: int
    gamma_used: float
    mean: np.ndarray
    scale: np.ndarray
    machines: tuple[BinarySvm, ...]
    manifest: dict

    def __post_init__(self):
        n_features = int(self.n_features)
        machines = tuple(
            m if isinstance(m, BinarySvm)
            else BinarySvm(**{**m, "sv": np.reshape(m["sv"], (-1, n_features))})
            for m in self.machines
        )
        object.__setattr__(self, "n_features", n_features)
        object.__setattr__(self, "gamma_used", float(self.gamma_used))
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=np.float64))
        object.__setattr__(self, "machines", machines)
        object.__setattr__(self, "manifest", dict(self.manifest))
        if len(machines) != N_CLASSES:
            raise DataError(
                f"one-vs-rest takes one machine per class ({N_CLASSES}), got {len(machines)}"
            )
        for name in ("mean", "scale"):
            if getattr(self, name).shape != (n_features,):
                raise DataError(
                    f"{name} must hold n_features = {n_features} values, "
                    f"got shape {getattr(self, name).shape}"
                )


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """k(x, z) = exp(-gamma * ||x - z||^2), pairwise over rows."""
    sq = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def kkt_violations(
    alpha: np.ndarray, y: np.ndarray, decision: np.ndarray, c: float
) -> np.ndarray:
    """Per-point KKT violation magnitude for a converged dual solution.

    alpha=0 wants y*f >= 1, interior alphas want y*f = 1, alpha=C wants
    y*f <= 1; the return value is how far each point is on the wrong
    side of its own condition (0 when satisfied).
    """
    margin = y * decision
    at_zero = alpha <= ALPHA_EPS
    at_upper = alpha >= c - ALPHA_EPS
    interior = ~(at_zero | at_upper)
    viol = np.zeros_like(alpha)
    viol[at_zero] = np.maximum(0.0, 1.0 - margin[at_zero])
    viol[interior] = np.abs(margin[interior] - 1.0)
    viol[at_upper & ~at_zero] = np.maximum(0.0, margin[at_upper & ~at_zero] - 1.0)
    return viol


def _smo_binary(
    k: np.ndarray, y: np.ndarray, c: float, tol: float, max_passes: int
) -> tuple[np.ndarray, float, int, float]:
    """Solve one binary dual by WSS2; returns (alpha, bias, iterations,
    max KKT violation).

    The machine has converged when the largest violation is ``<= tol``.
    """
    n = y.size
    # beta = alpha * y lives in the box [lo, hi]; score = -y * G, where
    # G = Q alpha - 1 is the dual gradient, is y - K beta
    lo, hi = np.minimum(0.0, c * y), np.maximum(0.0, c * y)
    beta, score = np.zeros(n), y.copy()
    diag = k.diagonal()
    cap = max_passes * n
    for iterations in range(cap + 1):
        # I_up can still raise its beta, I_low lower it (bounds within ALPHA_EPS
        # count as reached, as kkt_violations counts them)
        up, low = beta < hi - ALPHA_EPS, beta > lo + ALPHA_EPS
        i = int(np.argmax(np.where(up, score, -np.inf)))
        top, bottom = score[i], np.min(np.where(low, score, np.inf))
        if top - bottom < tol or iterations == cap:
            break
        k_i = k[:, i]
        gap = top - score
        curv = np.maximum(k_i[i] + diag - 2.0 * k_i, TAU)
        j = int(np.argmax(np.where(low & (gap > 0), gap * gap / curv, -np.inf)))
        # the pair moves along y^T alpha = 0, clipped to the box
        step = min(gap[j] / curv[j], hi[i] - beta[i], beta[j] - lo[j])
        beta[i] += step
        beta[j] -= step
        score -= step * (k_i - k[:, j])

    free = up & low
    bias = float(np.mean(score[free]) if free.any() else 0.5 * (top + bottom))
    # the clip takes off the last-bit overshoot of a step to a bound, and
    # the check recomputes decisions from scratch, free of the tiny drift
    # the incremental score updates accumulate
    alpha = np.clip(y * beta, 0.0, c)
    fresh = k @ (alpha * y) + bias
    return alpha, bias, iterations, float(np.max(kkt_violations(alpha, y, fresh, c)))


def train_svm(x: np.ndarray, y: np.ndarray, cfg: SvmConfig) -> SvmModel:
    x, y = training_set(x, y)
    n, d = x.shape
    mean, scale = standardizer(x, 0, cfg.standardize)
    xs = (x - mean) / scale

    gamma = cfg.gamma
    if gamma is None:
        var = float(xs.var())
        if var <= 0:
            raise DataError("cannot derive gamma: features have zero variance")
        gamma = 1.0 / (d * var)

    k = rbf_kernel(xs, xs, gamma)
    machines: list[BinarySvm] = []
    per_class: list[dict] = []
    for class_index in range(N_CLASSES):
        yk = np.where(y == class_index, 1.0, -1.0)
        if np.all(yk == yk[0]):
            # degenerate one-sided problem: constant decision at the
            # common sign, no support vectors
            alpha, bias, sweeps, max_violation = np.zeros(n), float(yk[0]), 0, 0.0
        else:
            alpha, bias, sweeps, max_violation = _smo_binary(
                k, yk, cfg.c, cfg.tol, cfg.max_passes
            )
        converged = max_violation <= cfg.tol
        mask = alpha > ALPHA_EPS
        machines.append(
            BinarySvm(
                sv=xs[mask],
                coef=(alpha * yk)[mask],
                bias=float(bias),
                converged=converged,
                sweeps=sweeps,
            )
        )
        per_class.append(
            {
                "n_support": int(mask.sum()),
                "converged": converged,
                "sweeps": sweeps,
                "max_kkt_violation": max_violation,
                "duals": alpha.tolist(),
            }
        )

    decisions = _decisions(xs, machines, gamma)
    manifest = {
        "config": asdict(cfg),
        "gamma_used": gamma,
        "data_sha256": data_digest(x, y),
        "n_samples": n,
        "n_features": d,
        "train_accuracy": float(np.mean(np.argmax(decisions, axis=1) == y)),
        "classes": per_class,
    }
    return SvmModel(
        kind="svm",
        config=cfg,
        n_features=d,
        gamma_used=gamma,
        mean=mean,
        scale=scale,
        machines=tuple(machines),
        manifest=manifest,
    )


def _decisions(xs: np.ndarray, machines: Sequence[BinarySvm], gamma: float) -> np.ndarray:
    out = np.zeros((xs.shape[0], N_CLASSES))
    for column, machine in enumerate(machines):
        if machine.sv.shape[0] == 0:
            out[:, column] = machine.bias
        else:
            out[:, column] = rbf_kernel(xs, machine.sv, gamma) @ machine.coef + machine.bias
    return out


def decision_matrix(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """(n, 4) one-vs-rest decision values for raw (unstandardized) rows."""
    x = feature_rows(x, model.n_features)
    return _decisions((x - model.mean) / model.scale, model.machines, model.gamma_used)


def predict_svm_batch(
    model: SvmModel, x: np.ndarray
) -> tuple[list[TrajectoryLabel], np.ndarray]:
    """argmax of one-vs-rest decisions per row, first maximum on exact ties."""
    decisions = decision_matrix(model, x)
    return argmax_labels(decisions), decisions
