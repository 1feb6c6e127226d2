"""Every entry point that takes a side or region refuses an unknown one."""

import numpy as np
import pytest

from bie2d.distributions import PairDistribution, dist_single_layer_field
from bie2d.errors import OutOfRange
from bie2d.geometry import stock_mesh
from bie2d.operators import operator_set
from bie2d.potentials import normal_derivative_single, trace_double
from bie2d.solvers import (
    decompose,
    green_h,
    kernel_coincidence_angle,
    nullspace,
    transpose_kernel_pair_basis,
)


@pytest.fixture(scope="module")
def mesh():
    return stock_mesh("annulus", 64)


def _pair(mesh, side):
    return PairDistribution(side, np.zeros(mesh.n), np.cos(mesh.t), mesh)


# entry point -> call with the side or region it takes
_SIDE_ENTRIES = {
    "trace_double": lambda mesh, side: trace_double(mesh, np.ones(mesh.n), side),
    "normal_derivative_single":
        lambda mesh, side: normal_derivative_single(mesh, np.ones(mesh.n), side),
    "dtn": lambda mesh, side: operator_set(mesh).dtn(side, np.ones(mesh.n)),
    "rep": lambda mesh, side: operator_set(mesh).rep(side, np.ones(mesh.n)),
    "PairDistribution": _pair,
    "decompose": lambda mesh, side: decompose(mesh, np.cos(mesh.t), side),
}
_REGION_ENTRIES = {
    "dist_single_layer_field": lambda mesh, region: dist_single_layer_field(
        _pair(mesh, "plus"), np.array([[0.0, 1.5]]), region
    ),
    "green_h": lambda mesh, region: green_h(mesh, np.array([0.0, 1.5]), region),
}
_CASES = (
    [(name, "plus", bad) for name in _SIDE_ENTRIES
     for bad in ("interior", "exterior", "omega", "sideways", "")]
    + [(name, "interior", bad) for name in _REGION_ENTRIES
       for bad in ("plus", "minus", "omega_minus", "inside", "")]
)


@pytest.mark.parametrize("name, valid, bad", _CASES)
def test_unknown_side_or_region_is_out_of_range(mesh, name, valid, bad):
    call = {**_SIDE_ENTRIES, **_REGION_ENTRIES}[name]
    call(mesh, valid)
    with pytest.raises(OutOfRange, match="unknown"):
        call(mesh, bad)


@pytest.mark.parametrize("entry", [kernel_coincidence_angle, transpose_kernel_pair_basis])
def test_transpose_kernel_routes_take_only_a_wt_kind(mesh, entry):
    entry(mesh, "half_plus_Wt")
    for bad in ("half_plus_W", "minus_half_plus_W", "half_plus_V", ""):
        with pytest.raises(OutOfRange, match="unknown operator kind"):
            entry(mesh, bad)
    with pytest.raises(OutOfRange, match="unknown operator kind"):
        nullspace(mesh, "half_plus_V")
