"""What each grid mutation writes to occupancy, and what it leaves alone.

The names come from the change-listener hook these tests once checked
through recorded notifications; each now asserts on the grid itself.
"""

import numpy as np
import pytest

from repro.errors import GridError
from repro.geometry import Point, Rect
from repro.grid import CellState, RoutingGrid


@pytest.fixture
def grid():
    return RoutingGrid(10, 10)


def _owned(grid):
    """Every non-free cell as ``{(layer, x, y): owner}``."""
    return {
        tuple(int(v) for v in cell): int(grid._occ[tuple(cell)])
        for cell in np.argwhere(grid._occ != int(CellState.FREE))
    }


def test_occupy_notifies(grid):
    grid.occupy(1, Point(3, 4), 7)
    assert _owned(grid) == {(1, 3, 4): 7}


def test_reoccupy_same_net_is_silent(grid):
    grid.occupy(0, Point(2, 2), 5)
    grid.occupy(0, Point(2, 2), 5)  # no occupancy change, no error
    assert _owned(grid) == {(0, 2, 2): 5}


def test_release_notifies_only_on_actual_release(grid):
    grid.occupy(0, Point(1, 1), 3)
    grid.release(0, Point(1, 1), 99)  # wrong owner: no-op
    assert _owned(grid) == {(0, 1, 1): 3}
    grid.release(0, Point(1, 1), 3)
    assert _owned(grid) == {}


def test_release_net_reports_every_cell(grid):
    for x in range(3):
        grid.occupy(0, Point(x, 5), 9)
    grid.occupy(0, Point(4, 5), 8)
    assert grid.release_net(9) == 3
    assert _owned(grid) == {(0, 4, 5): 8}


def test_release_net_reports_cells_in_row_major_order(grid):
    for layer, x, y in [(2, 1, 1), (0, 4, 0), (1, 0, 9), (0, 3, 7), (0, 3, 2)]:
        grid.occupy(layer, Point(x, y), 9)
    assert [(layer, p.x, p.y) for layer, p in grid.cells_of_net(9)] == [
        (0, 3, 2), (0, 3, 7), (0, 4, 0), (1, 0, 9), (2, 1, 1)
    ]
    assert grid.release_net(9) == 5
    assert list(grid.cells_of_net(9)) == []


def test_release_net_of_absent_net_is_silent(grid):
    grid.occupy(0, Point(0, 0), 1)
    assert grid.release_net(42) == 0
    assert _owned(grid) == {(0, 0, 0): 1}


def test_block_signals_bulk_reset(grid):
    grid.block(0, Rect(2, 2, 5, 5))
    assert _owned(grid) == {
        (0, x, y): int(CellState.BLOCKED) for x in range(2, 5) for y in range(2, 5)
    }


def test_copy_does_not_share_listeners(grid):
    clone = grid.copy()
    clone.occupy(0, Point(4, 4), 2)
    assert _owned(grid) == {}
    assert _owned(clone) == {(0, 4, 4): 2}


def test_failed_occupy_does_not_notify(grid):
    grid.occupy(0, Point(6, 6), 1)
    with pytest.raises(GridError):
        grid.occupy(0, Point(6, 6), 2)
    with pytest.raises(GridError):
        grid.occupy(0, Point(10, 0), 2)
    assert _owned(grid) == {(0, 6, 6): 1}
