import pytest

from finitekey import spectra


def forget_points():
    """Empty the point registry (`spectra._registry`), so a spectrum built
    after it reads its first points from the ends of its families."""
    with spectra._lock:
        spectra._registry.clear()


@pytest.fixture(autouse=True)
def _no_kept_points():
    """Every test starts with no point store kept, so what a cost guard
    counts does not depend on the tests run before it in the process."""
    forget_points()
