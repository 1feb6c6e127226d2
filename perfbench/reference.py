"""Seeded analytic inputs and references for the stock annulus 1 < |z| < 2.

Every datum the benchmark hands to bie2d is built here from closed forms,
never from the library: node positions and normals of the stock annulus,
and harmonic functions given as sums of complex poles (plus logarithms for
the interior).  Their values and normal derivatives are exact, so the
library's fields can be checked against them.
"""

import numpy as np

R_OUTER = 2.0
R_INNER = 1.0


def annulus_nodes(n):
    """Nodes and unit normals (out of the annulus) of the stock annulus mesh.

    The outer circle is traversed counterclockwise and the hole clockwise,
    n uniform parameter nodes each, outer curve first, as bie2d meshes it.
    """
    t = 2.0 * np.pi * np.arange(n) / n
    outer = R_OUTER * np.stack([np.cos(t), np.sin(t)], axis=-1)
    inner = R_INNER * np.stack([np.cos(t), -np.sin(t)], axis=-1)
    x = np.concatenate([outer, inner])
    normal = np.concatenate([outer / R_OUTER, -inner / R_INNER])
    return x, normal


class PoleSum:
    """u = Re[c0 + sum_k c_k (z - p_k)^-m_k + sum_j a_j log(z - q_j)]."""

    def __init__(self, poles, coefs, orders, log_poles=(), log_weights=(), const=0.0):
        self.poles = np.asarray(poles, dtype=complex)
        self.coefs = np.asarray(coefs, dtype=complex)
        self.orders = np.asarray(orders, dtype=int)
        self.log_poles = np.asarray(log_poles, dtype=complex)
        self.log_weights = np.asarray(log_weights, dtype=float)
        self.const = float(const)

    def value(self, points):
        z = points[:, 0] + 1j * points[:, 1]
        f = np.full(z.shape, self.const, dtype=complex)
        for p, c, m in zip(self.poles, self.coefs, self.orders):
            f += c / (z - p) ** m
        for q, a in zip(self.log_poles, self.log_weights):
            f += a * np.log(z - q)
        return f.real

    def normal_derivative(self, points, normal):
        # grad Re f = (Re f', -Im f') for analytic f
        z = points[:, 0] + 1j * points[:, 1]
        fp = np.zeros(z.shape, dtype=complex)
        for p, c, m in zip(self.poles, self.coefs, self.orders):
            fp -= m * c / (z - p) ** (m + 1)
        for q, a in zip(self.log_poles, self.log_weights):
            fp += a / (z - q)
        return fp.real * normal[:, 0] - fp.imag * normal[:, 1]


def _points_at(rng, count, r_lo, r_hi):
    # uniform in area over the ring r_lo <= |z| <= r_hi
    r = np.sqrt(rng.uniform(r_lo**2, r_hi**2, size=count))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return r * np.cos(theta) + 1j * r * np.sin(theta)


def _coefs(rng, count):
    return rng.uniform(-1.0, 1.0, size=count) + 1j * rng.uniform(-1.0, 1.0, size=count)


def interior_harmonic(rng):
    """Harmonic in the annulus: poles in the hole and beyond |z| = 3.

    The logarithm centred in the hole carries flux through each curve, so
    the interior problems see a genuinely multiply connected datum.
    """
    poles = np.concatenate([_points_at(rng, 2, 0.0, 0.6), _points_at(rng, 2, 3.0, 4.0)])
    return PoleSum(
        poles,
        _coefs(rng, 4),
        rng.integers(1, 4, size=4),
        log_poles=_points_at(rng, 1, 0.0, 0.5),
        log_weights=rng.uniform(-1.0, 1.0, size=1),
        const=rng.uniform(-1.0, 1.0),
    )


def exterior_harmonic(rng):
    """Harmonic off the closed annulus and bounded at infinity.

    Multipoles inside the annulus have no flux through either curve and
    vanish at infinity, so the value at infinity is the constant.
    """
    return PoleSum(
        _points_at(rng, 3, 1.35, 1.65),
        _coefs(rng, 3),
        rng.integers(1, 3, size=3),
        const=rng.uniform(-1.0, 1.0),
    )


def region_points(rng, count, region):
    """Seeded points at least 0.1 from both curves, in the field's region."""
    if region == "interior":
        z = _points_at(rng, count, R_INNER + 0.1, R_OUTER - 0.1)
    else:
        half = count // 2
        z = np.concatenate(
            [_points_at(rng, half, 0.0, R_INNER - 0.1),
             _points_at(rng, count - half, R_OUTER + 0.1, 2.0 * R_OUTER)]
        )
    return np.stack([z.real, z.imag], axis=-1)


def region_component(points, region):
    """Component label of each point of the region, -1 off the region.

    The interior (the annulus) is one component; the exterior has the hole
    (label 0) and the unbounded part (label 1).
    """
    r = np.hypot(points[:, 0], points[:, 1])
    label = np.full(r.shape, -1)
    if region == "interior":
        label[(r > R_INNER) & (r < R_OUTER)] = 0
    else:
        label[r < R_INNER] = 0
        label[r > R_OUTER] = 1
    return label
