from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import slopewatch as sw
import slopewatch.cloud as cloud_mod


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def random_cloud(rng):
    return sw.PointCloud(points=rng.uniform(0, 10, (1000, 3)))


@pytest.fixture
def serial_blocks(monkeypatch):
    """Call it to run every ``cloud._by_rows`` kernel from then on in
    blocks of 7 rows on a one-thread pool."""
    pool = ThreadPoolExecutor(1)

    def use():
        monkeypatch.setattr(cloud_mod, "_POOL", pool)
        monkeypatch.setattr(cloud_mod, "ROW_BLOCK", 7)

    yield use
    pool.shutdown()
