import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_chains import LatticeSpace, Window
from oracles import lattice_ball


def test_ball_examples():
    assert lattice_ball(LatticeSpace(1), (0,), 1) == [(-1,), (0,), (1,)]
    assert lattice_ball(LatticeSpace(2), (0, 0), 0) == [(0, 0)]
    ball = lattice_ball(LatticeSpace(2), (5, 5), 1)
    assert len(ball) == 9
    assert all(max(abs(a - 5), abs(b - 5)) <= 1 for a, b in ball)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_ball_count_is_bounded_geometry(n, r):
    if (2 * r + 1) ** n > 100_000:
        pytest.skip("ball too large to enumerate")
    space = LatticeSpace(n)
    center = tuple(range(n))
    assert len(lattice_ball(space, center, r)) == (2 * r + 1) ** n


def test_ball_is_sorted_lexicographically():
    ball = lattice_ball(LatticeSpace(2), (0, 0), 2)
    assert ball == sorted(ball)


@given(st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_metric_axioms(n, data):
    space = LatticeSpace(n)
    pt = st.tuples(*[st.integers(-50, 50)] * n)
    x, y, z = data.draw(pt), data.draw(pt), data.draw(pt)
    assert space.distance(x, y) == space.distance(y, x)
    assert (space.distance(x, y) == 0) == (x == y)
    assert space.distance(x, z) <= space.distance(x, y) + space.distance(y, z)


def test_space_json_roundtrip():
    space = LatticeSpace(3)
    assert LatticeSpace.from_json(space.to_json()) == space
    w = Window((-1, 0), (2, 5))
    assert Window.from_json(w.to_json()) == w


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        Window((1,), (0,))


def test_dimension_zero_lattice_is_a_point():
    space = LatticeSpace(0)
    assert lattice_ball(space, (), 3) == [()]
    assert space.distance((), ()) == 0
