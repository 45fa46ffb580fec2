import numpy as np
import pytest

from ssar.core import Dataset
from ssar.rngutil import make_rng


@pytest.fixture
def rng():
    return make_rng(20250808)


def gaussian_dataset(n1: int, n2: int, d: int, seed: int) -> Dataset:
    r = make_rng(seed)
    x = r.standard_normal((n1 + n2, d)) / np.sqrt(d)
    y2 = r.standard_normal(n2)
    return Dataset(x, n1, y2)
