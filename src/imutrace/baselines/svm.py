"""One-vs-rest RBF support vector machine trained by SMO.

Each of the four classes gets a binary machine (class vs rest) solved
in the dual by sequential minimal optimization with LIBSVM's
second-order working-set selection (WSS2: Fan, Chen and Lin, JMLR
2005). Each iteration takes i as the maximal violator, j as the
violating partner that promises the largest objective decrease, and
moves the pair along y^T alpha = 0, clipped to the box [0, C]. Training
stops when the maximal violating pair's gap falls below ``tol`` or after
``max_passes * n`` iterations, whichever comes first; there is no RNG,
so training is deterministic. Each iteration is a few O(n) numpy
operations on the gradient vector, with no per-point Python loop.

As in LIBSVM (Chang and Lin, ACM TIST 2011), the trained machines share
one support set: the Train rows with a nonzero dual in some machine,
with one coefficient column per machine, so a prediction is one kernel.

Features are standardized by training-set statistics by default; with
mixed physical units (m/s^2, rad/s, uT) the raw kernel distances would
be dominated by whichever axes happen to have the largest spread.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

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
class SvmModel:
    """A trained SVM; its fields are the keys of its model file.

    Machine c's decision is ``K(x, sv) @ coef[:, c] + bias[c]``; its
    column of ``coef`` is zero on the rows that are no support vectors
    of its own.
    """

    kind: str
    config: SvmConfig
    n_features: int
    gamma_used: float
    mean: np.ndarray
    scale: np.ndarray
    sv: np.ndarray  # (m, n_features) standardized support vectors
    coef: np.ndarray  # (m, 4) alpha_i * y_i, one column per class
    bias: np.ndarray  # (4,)
    manifest: dict

    def __post_init__(self):
        n_features = int(self.n_features)
        object.__setattr__(self, "n_features", n_features)
        object.__setattr__(self, "gamma_used", float(self.gamma_used))
        for name in ("mean", "scale", "sv", "coef", "bias"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "manifest", dict(self.manifest))
        m = self.sv.shape[:1]
        shapes = {
            "mean": (n_features,),
            "scale": (n_features,),
            "sv": m + (n_features,),
            "coef": m + (N_CLASSES,),
            "bias": (N_CLASSES,),
        }
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise DataError(
                    f"{name} must have shape {shape} for n_features = {n_features} "
                    f"and {N_CLASSES} classes, got {getattr(self, name).shape}"
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
    coef, bias = np.zeros((n, N_CLASSES)), np.zeros(N_CLASSES)
    per_class: list[dict] = []
    for class_index in range(N_CLASSES):
        yk = np.where(y == class_index, 1.0, -1.0)
        if np.all(yk == yk[0]):
            # degenerate one-sided problem: constant decision at the
            # common sign, no support vectors
            alpha, bias[class_index], sweeps, max_violation = np.zeros(n), yk[0], 0, 0.0
        else:
            alpha, bias[class_index], sweeps, max_violation = _smo_binary(
                k, yk, cfg.c, cfg.tol, cfg.max_passes
            )
        mask = alpha > ALPHA_EPS
        coef[mask, class_index] = (alpha * yk)[mask]
        per_class.append(
            {
                "n_support": int(mask.sum()),
                "converged": max_violation <= cfg.tol,
                "sweeps": sweeps,
                "max_kkt_violation": max_violation,
                "duals": alpha.tolist(),
            }
        )

    support = coef.any(axis=1)
    coef = coef[support]
    decisions = k[:, support] @ coef + bias
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
        sv=xs[support],
        coef=coef,
        bias=bias,
        manifest=manifest,
    )


def decision_matrix(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """(n, 4) one-vs-rest decision values for raw (unstandardized) rows."""
    xs = (feature_rows(x, model.n_features) - model.mean) / model.scale
    return rbf_kernel(xs, model.sv, model.gamma_used) @ model.coef + model.bias


def predict_svm_batch(
    model: SvmModel, x: np.ndarray
) -> tuple[list[TrajectoryLabel], np.ndarray]:
    """argmax of one-vs-rest decisions per row, first maximum on exact ties."""
    decisions = decision_matrix(model, x)
    return argmax_labels(decisions), decisions
