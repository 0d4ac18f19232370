import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from poroscat import forward
from poroscat.material import solve_dispersion
from poroscat.presets import PECOS_OMEGA, pecos_sandstone

# the same examples on every run, and no example database on disk
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def pytest_configure(config):
    # Hypothesis caches the constants it finds in the code under test;
    # keep that cache in pytest's cache directory, not in ./.hypothesis
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture(scope="session")
def params():
    return pecos_sandstone()


@pytest.fixture(scope="session")
def wave(params):
    return solve_dispersion(params, PECOS_OMEGA)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def forward_opens(monkeypatch):
    """The modes of the files poroscat.forward opens during the test: its
    exchange-format reader opens a file once, as bytes, whether it reads
    the file or refuses it."""
    opened = []

    def spy(file, mode="r", *args, **kwargs):
        opened.append(mode)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(forward, "open", spy, raising=False)
    return opened
