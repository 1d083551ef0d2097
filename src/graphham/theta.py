"""Edge weight interpolations ("theta weights").

A theta weight turns two node masses into a single mass for the edge that
joins them. Three interpolations are supported:

* average      0.5 * (rho_i + rho_j)
* logmean      (rho_i - rho_j) / (log rho_i - log rho_j), the logarithmic mean
* upwind       the mass of the node the flow leaves, picked by the sign of a
               direction value dir_ij (positive means flow arrives at i, so
               the donor is j)

All evaluators are vectorized over numpy arrays. The logarithmic mean is
evaluated by a short series in eta = (a - b)/(a + b) near the diagonal where
the quotient formula loses digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryDensity

# below this relative gap the closed form for the log mean is replaced by
# its series expansion
_SERIES_CUTOFF = 1e-6


@dataclass(frozen=True)
class ThetaKind:
    """Tagged choice of edge interpolation: "average", "logmean" or "upwind".

    The upwind kind takes its directions from the operation using the
    weight, typically the velocity field it is contracting against.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("average", "logmean", "upwind"):
            raise ValueError("unknown theta kind %r" % (self.kind,))


AVERAGE = ThetaKind("average")
LOGMEAN = ThetaKind("logmean")
UPWIND = ThetaKind("upwind")


def from_name(name: str) -> ThetaKind:
    """Deserialize a theta kind from its config name."""
    return ThetaKind(name)


def _check_positive(kind, a, b):
    if kind == "logmean" and ((np.asarray(a) <= 0).any() or (np.asarray(b) <= 0).any()):
        raise BoundaryDensity("logarithmic mean requires strictly positive masses")


def _logmean(a, b):
    """(L, eta, near, delta): the log mean with its series switch, and the
    relative gap, switch mask and log gap it was evaluated from."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = 0.5 * (a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(s > 0, (a - b) / (2.0 * np.where(s > 0, s, 1.0)), 0.0)
        near = np.abs(eta) < _SERIES_CUTOFF
        # series: L = s (1 - eta^2/3 - 4 eta^4/45 + ...)
        eta2 = eta * eta
        series = s * (1.0 - eta2 / 3.0 - 4.0 * (eta2 * eta2) / 45.0)
        delta = np.log(np.where(near, 1.0, a)) - np.log(np.where(near, 1.0, b))
        quotient = np.where(near, series, (a - b) / np.where(near, 1.0, delta))
    return np.where(near, series, quotient), eta, near, delta


def _logmean_partials(a, b, lm, eta, near, delta):
    """(dL/da, dL/db) with the same series switch as the value, from the
    float masses and the _logmean tuple evaluated at them."""
    # dL/da = (1/Delta)(1 - L/a), dL/db = (1/Delta)(L/b - 1) off the diagonal
    with np.errstate(divide="ignore", invalid="ignore"):
        da_far = (1.0 - lm / a) / np.where(near, 1.0, delta)
        db_far = (lm / b - 1.0) / np.where(near, 1.0, delta)
    # series about the diagonal, error O(eta^3)
    da_near = 0.5 * (1.0 - 2.0 * eta / 3.0 + eta * eta / 3.0)
    db_near = 0.5 * (1.0 + 2.0 * eta / 3.0 + eta * eta / 3.0)
    return np.where(near, da_near, da_far), np.where(near, db_near, db_far)


def theta(kind: ThetaKind, rho_i, rho_j, dir_ij=0.0):
    """Edge mass for ordered pair (i, j).

    dir_ij only matters for the upwind kind: positive direction means the
    donor node is j (theta = rho_j), negative means the donor is i, and
    exact ties fall to rho_i (the flow factor vanishes there anyway).
    """
    _check_positive(kind.kind, rho_i, rho_j)
    if kind.kind == "average":
        return 0.5 * (np.asarray(rho_i, dtype=float) + np.asarray(rho_j, dtype=float))
    if kind.kind == "logmean":
        return _logmean(rho_i, rho_j)[0]
    rho_i = np.asarray(rho_i, dtype=float)
    rho_j = np.asarray(rho_j, dtype=float)
    return np.where(np.asarray(dir_ij) > 0, rho_j, rho_i)


def theta_partial(kind: ThetaKind, rho_i, rho_j, dir_ij=0.0):
    """Both partial derivatives (d theta / d rho_i, d theta / d rho_j)."""
    _check_positive(kind.kind, rho_i, rho_j)
    if kind.kind == "average":
        shape = np.broadcast(np.asarray(rho_i), np.asarray(rho_j), np.asarray(dir_ij)).shape
        return (np.full(shape, 0.5), np.full(shape, 0.5)) if shape else (0.5, 0.5)
    if kind.kind == "logmean":
        a = np.asarray(rho_i, dtype=float)
        b = np.asarray(rho_j, dtype=float)
        return _logmean_partials(a, b, *_logmean(a, b))
    on_i = np.asarray(dir_ij) <= 0  # donor is i at ties and negative direction
    return np.where(on_i, 1.0, 0.0), np.where(on_i, 0.0, 1.0)


def theta_with_partial(kind: ThetaKind, rho_i, rho_j, dir_ij=0.0):
    """(theta(...), theta_partial(...)) with the log mean evaluated once."""
    if kind.kind != "logmean":
        return theta(kind, rho_i, rho_j, dir_ij), theta_partial(kind, rho_i, rho_j, dir_ij)
    _check_positive(kind.kind, rho_i, rho_j)
    a = np.asarray(rho_i, dtype=float)
    b = np.asarray(rho_j, dtype=float)
    lm = _logmean(a, b)
    return lm[0], _logmean_partials(a, b, *lm)
