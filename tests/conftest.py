"""Child processes started by the tests import the package from this checkout.

Every test starts with cold diagram, measure and cone-fan memos, so a test
that counts double-description passes or built Fractions sees the work of
its own calls.
"""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def _cold_diagram_memos():
    from lelong import poly_geom

    poly_geom._diagram.cache_clear()
    poly_geom._masses.cache_clear()
    poly_geom._pl_cones.cache_clear()
