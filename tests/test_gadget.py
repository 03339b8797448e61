from __future__ import annotations

import pytest

from nonrep.gadget import build_switch_gadget
from oracles import build_dense_gadget, exit_reach_sets, gadget_reaches

# Frozen size bounds for the linear construction, valid through k = 64;
# growth is 4k + O(log k) so larger k would need a larger additive term.
NODE_BOUND = lambda k: 4 * k + 6
ARC_BOUND = lambda k: 6 * k + 4


def test_rejects_zero_labels():
    with pytest.raises(ValueError):
        build_switch_gadget(0)
    with pytest.raises(ValueError):
        build_dense_gadget(0)


def test_single_label_gadget_has_no_connection():
    g = build_switch_gadget(1)
    assert g.num_nodes == 2
    assert g.arcs == ()
    assert not gadget_reaches(g, 0, 0)


def test_two_label_gadget_is_the_crossed_pair():
    g = build_switch_gadget(2)
    assert g.num_nodes == 4
    assert set(g.arcs) == {(0, 3), (1, 2)}


def test_nine_labels_reach_exactly_eight_exits():
    g = build_switch_gadget(9)
    for slot, reached in enumerate(exit_reach_sets(g)):
        assert len(reached) == 8
        assert slot not in reached


@pytest.mark.parametrize("k", list(range(1, 21)) + [31, 32, 33])
def test_switch_law_small(k):
    g = build_switch_gadget(k)
    for a, reached in enumerate(exit_reach_sets(g)):
        assert reached == frozenset(b for b in range(k) if b != a)


@pytest.mark.parametrize("k", list(range(1, 13)))
def test_dense_gadget_same_law(k):
    g = build_dense_gadget(k)
    for a, reached in enumerate(exit_reach_sets(g)):
        assert reached == frozenset(b for b in range(k) if b != a)
    assert gadget_reaches(g, 0, 0) is False


def test_linear_size_bounds_through_64():
    for k in range(1, 65):
        g = build_switch_gadget(k)
        assert g.num_nodes <= NODE_BOUND(k), (k, g.num_nodes)
        assert len(g.arcs) <= ARC_BOUND(k), (k, len(g.arcs))


def test_dense_gadget_is_quadratic():
    g = build_dense_gadget(7)
    assert g.num_nodes == 14
    assert len(g.arcs) == 7 * 6
