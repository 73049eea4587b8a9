import os

import pytest

import robinsl


@pytest.fixture
def child_env():
    """os.environ for a fresh interpreter that imports the robinsl this process imported, installed or not."""
    src = os.path.dirname(os.path.dirname(robinsl.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
