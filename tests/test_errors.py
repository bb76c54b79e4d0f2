"""errors.guard: the one rule by which a per-sample check names its sample."""

import numpy as np
import pytest

from dualruled.errors import guard


class Tripped(Exception):
    pass


@pytest.mark.parametrize("excess,sample", [
    (np.array([False, True, False, True]), 1),             # a mask names its first sample
    (np.array([-1.0, 0.5, -0.2, 2.0, 1.0]), 3),            # an excess names its worst one
    (np.array([[0.0, 0.0], [0.0, 3.0]]), 3),               # flat index on a batch
    (np.bool_(True), 0),
])
def test_guard_names_one_sample(excess, sample):
    with pytest.raises(Tripped) as info:
        guard(excess, Tripped)
    assert info.value.args == (sample,)


@pytest.mark.parametrize("excess", [
    np.array([False, False]), np.array([-1.0, 0.0, -3.0]), np.array([np.nan, -1.0]),
    np.float64(0.0),
])
def test_guard_passes_without_a_positive_excess(excess):
    guard(excess, Tripped)
