import os
from pathlib import Path

import pytest

import fr3ris


@pytest.fixture
def cli_env():
    """Environment in which `python -m fr3ris.cli` imports the same fr3ris
    as the tests, installed or not."""
    root = str(Path(fr3ris.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=root + (os.pathsep + path if path else ""))
