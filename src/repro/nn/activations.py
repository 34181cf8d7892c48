"""Activation functions and the sensitive-area algebra of Section IV-A.

The paper's inter-cell analysis rests on one property of the sigmoid and
tanh activations (Fig. 7): inside ``[-2, 2]`` the output tracks the input
(the *sensitive area*), outside that band the output is saturated (the
*insensitive area*). The same boundaries fit the hard-sigmoid approximation
some frameworks use, so the analysis is framework independent.
"""

from __future__ import annotations

import numpy as np

#: Lower / upper boundary of the sensitive area shared by sigmoid and tanh
#: (Fig. 7). Inputs outside ``[SENSITIVE_LO, SENSITIVE_HI]`` saturate.
SENSITIVE_LO: float = -2.0
SENSITIVE_HI: float = 2.0

#: Width of the sensitive area; Algorithm 2 clips per-element relevance
#: contributions to this value.
SENSITIVE_WIDTH: float = SENSITIVE_HI - SENSITIVE_LO


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid.

    Evaluates ``exp(-|x|)`` once and selects the positive/negative branch
    with ``where``: ``-|x|`` is exactly ``-x`` for ``x >= 0`` and exactly
    ``x`` otherwise, so each element matches the classic two-branch stable
    form bit for bit while avoiding the masked gather/scatter passes.
    """
    x = np.asarray(x, dtype=np.float64)
    ex = np.exp(-np.abs(x))
    denom = 1.0 + ex
    return np.where(x >= 0, 1.0 / denom, ex / denom)


def hard_sigmoid(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear sigmoid approximation (Theano-style, Fig. 7a).

    ``hard_sigmoid(x) = clip(0.25 * x + 0.5, 0, 1)`` — exactly 0 below -2 and
    exactly 1 above +2, i.e. the sensitive-area boundaries are tight.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.clip(0.25 * x + 0.5, 0.0, 1.0)


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent (thin wrapper for a uniform activation namespace)."""
    return np.tanh(np.asarray(x, dtype=np.float64))


def sensitive_overlap(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Length of the overlap between input ranges ``[lo, hi]`` and the
    sensitive area ``[-2, 2]``.

    This is the geometric primitive behind Algorithm 2: a pre-activation
    whose reachable range misses the sensitive area entirely produces an
    output that is independent of ``h_{t-1}``, i.e. the context link does not
    matter for that element.

    Args:
        lo: Elementwise lower bounds of the pre-activation range.
        hi: Elementwise upper bounds (must satisfy ``hi >= lo``).

    Returns:
        Elementwise overlap lengths in ``[0, SENSITIVE_WIDTH]``.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    clipped_lo = np.maximum(lo, SENSITIVE_LO)
    clipped_hi = np.minimum(hi, SENSITIVE_HI)
    return np.maximum(clipped_hi - clipped_lo, 0.0)
