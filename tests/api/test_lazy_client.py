"""``repro.api`` loads its socket client only when a caller asks for it.

A facade run and ``python -m repro run`` never talk to a server, so
importing them must not pull in asyncio (and with it ssl and socket).
The check runs in a fresh interpreter: the test process may already have
imported the client (the server tests do).
"""

import os
import subprocess
import sys

import pytest

import repro
from repro import api

_SCRIPT = """
import sys
import repro.api, repro.__main__
assert "asyncio" not in sys.modules, "importing the facade loaded asyncio"
assert "repro.api.client" not in sys.modules, "importing the facade loaded the client"
from repro import api
assert api.ServiceClient.__module__ == "repro.api.client"
assert api.AsyncServiceClient.__name__ == "AsyncServiceClient"
"""


def test_facade_import_leaves_the_socket_client_unloaded():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no attribute 'NoSuchClient'"):
        api.NoSuchClient  # noqa: B018
