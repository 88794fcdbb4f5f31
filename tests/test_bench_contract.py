"""The names the benchmark wraps or reads must exist, so that a refactor that
drops one fails here rather than in a benchmark run."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import bench_child  # noqa: E402

from modir.index import build_index  # noqa: E402


@pytest.mark.parametrize("owner,attr,name", bench_child.CALLS, ids=[name for _, _, name in bench_child.CALLS])
def test_wrapped_call_is_defined_on_its_owner(owner, attr, name):
    assert attr in owner.__dict__


def test_index_attributes_read_by_the_checks():
    idx = build_index({"p": np.array([[1.0, 2.0]])}, seed=0)
    assert idx.centroid_ids.shape == (1,)
    assert idx.centroid_count == 1
    assert idx.internal_passage("p") == 0
