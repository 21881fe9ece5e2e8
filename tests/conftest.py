import pytest

from weylbundles.config import PRESETS, preset


@pytest.fixture(params=PRESETS)
def any_preset(request):
    return preset(request.param)


@pytest.fixture
def sphere():
    return preset("sphere")


@pytest.fixture
def sphere_amb(sphere):
    return sphere.ambient_algebra()


@pytest.fixture
def sphere_gwa(sphere):
    return sphere.gwa_algebra()


@pytest.fixture
def kleinian():
    return preset("kleinian-demo")
