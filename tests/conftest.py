import numpy as np
import pytest

import slopewatch as sw


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def random_cloud(rng):
    return sw.PointCloud(points=rng.uniform(0, 10, (1000, 3)))
