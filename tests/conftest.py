import os
import pathlib

import pytest

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# pyproject's ``pythonpath`` puts src/ on the suite's own path; this puts it
# first on the path of the ``python -m binsys`` and ``python -c`` children
# that the tests start, so that they too import this checkout, installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA
