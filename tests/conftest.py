import pytest

from anypath_vne import anypath
from anypath_vne.scenario import example_fixture


@pytest.fixture
def python_kernel(monkeypatch):
    """Route tables built by the Python kernel alone, from an empty route cache."""
    monkeypatch.setattr(anypath, "_kernel", None)
    anypath._table.cache_clear()
    yield
    anypath._table.cache_clear()


@pytest.fixture
def example():
    """(substrate, request, coefficients) of the built-in worked example."""
    return example_fixture()


@pytest.fixture
def example_net(example):
    return example[0]


@pytest.fixture
def example_request(example):
    return example[1]


@pytest.fixture
def example_coeffs(example):
    return example[2]
