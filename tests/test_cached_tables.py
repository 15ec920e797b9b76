"""Module-level cached tables: one object per key, every array read-only."""

import numpy as np
import pytest

from dpplab import certifier, comparison, core, operators
from dpplab.certifier import PairSearch
from dpplab.comparison import default_params
from dpplab.operators import GameSpec

_DIRECTIONAL = GameSpec.directional(0.2, 0.5, direction_count=8,
                                    radius_count=2, disk_node_count=5,
                                    disk_angle_count=6)

TABLES = {
    "stencil_offsets": (core.stencil_offsets, (2, 0.05, 0.2)),
    "stencil_offsets_3d": (core.stencil_offsets, (3, 0.1, 0.3)),
    "ball_lattice": (operators.ball_lattice, (2, 0.2, 9)),
    "_disk_template_2d": (operators._disk_template, (2, 5, 0)),
    "_disk_template_3d": (operators._disk_template, (3, 5, 6)),
    "_move_set": (operators._move_set, (3, 0.2, 8, 2, 5, 6)),
    "_grid_menu": (operators._grid_menu, (2, 0.05, _DIRECTIONAL)),
    "_distinct_rows": (operators._distinct_rows, (2, 0.05, _DIRECTIONAL)),
    "_f2_table": (comparison._f2_table, (default_params(2),)),
    "_lattice_keys": (certifier._lattice_keys, (2, 0.2, 9)),
    "_jump_tables": (certifier._jump_tables,
                     (2, 0.2, PairSearch(direction_count=8, radius_count=2,
                                         disk_node_count=5,
                                         disk_angle_count=6))),
}


def _arrays(value):
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    return [value] if isinstance(value, np.ndarray) else []


@pytest.mark.parametrize("name", TABLES)
def test_cached_table_is_one_read_only_object(name):
    fn, args = TABLES[name]
    first = fn(*args)
    assert fn(*args) is first
    arrays = _arrays(first)
    assert arrays
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0
