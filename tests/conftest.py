import numpy as np
import pytest

from bie2d.geometry import build_mesh, stock_mesh, CurveSpec


@pytest.fixture(scope="session")
def disk():
    return stock_mesh("disk", 256)


@pytest.fixture(scope="session")
def disk128():
    return stock_mesh("disk", 128)


@pytest.fixture(scope="session")
def ellipse():
    return stock_mesh("ellipse", 256)


@pytest.fixture(scope="session")
def annulus():
    return stock_mesh("annulus", 256)


@pytest.fixture(scope="session")
def kite():
    return stock_mesh("kite", 256)


@pytest.fixture(scope="session")
def two_disks():
    return stock_mesh("two-disks", 256)


@pytest.fixture(scope="session")
def disk2_fine():
    """Radius-2 disk fine enough that 0.025 clears the near-boundary band."""
    return build_mesh([CurveSpec("circle", radius=2.0)], [1536])


def circle_mesh(radius, n):
    return build_mesh([CurveSpec("circle", radius=radius)], [n])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


def winding_locations(mesh, points):
    """Location tuples by node distances and polygon winding numbers.

    The band test and the per-point classification of the location code
    before Gauss-law location replaced them, kept as its reference.
    """
    from bie2d.geometry import _winding_of_points

    topo = mesh.topology
    near = np.min(np.linalg.norm(points[:, None, :] - mesh.x[None, :, :], axis=-1),
                  axis=1) < mesh.band_width()
    inside = [np.abs(_winding_of_points(mesh.x[mesh.component_slice(c)], points)) > 0.5
              for c in range(mesh.n_components)]
    out = []
    for i in range(points.shape[0]):
        holes = [topo.omega_minus_of_comp[h] for h in topo.hole_comps if inside[h][i]]
        outers = [topo.omega_of_comp[o] for o in topo.outer_comps if inside[o][i]]
        if near[i]:
            out.append(("near_boundary", None))
        elif holes:
            out.append(("exterior", holes[0]))
        elif outers:
            out.append(("interior", outers[0]))
        else:
            out.append(("exterior", 0))
    return out
