"""Run Python in a child process with a bounded address space.

A test that feeds the CLI a hostile size runs it here, so a size the
program forgot to check fails the test with a MemoryError instead of
exhausting the host's memory. ``run_probe`` runs a hypothesis script whose
every example drives ``cli.main``, all in one such child.
"""

import os
import pathlib
import resource
import subprocess
import sys

import pytest

needs_limit = pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit")

# Prepended to every probe script: its imports, its arguments as paths, and
# ``run``, which asserts that one CLI command ends as a user error or success.
PROBE_PRELUDE = """
import contextlib, io, json, pathlib, struct, sys
from hypothesis import example, given, settings, strategies as st
from ftnet import cli

ARGS = list(map(pathlib.Path, sys.argv[1:]))

def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5, 6, 7), (code, err.getvalue())
    assert code == 0 or "error:" in err.getvalue(), err.getvalue()
    assert "Traceback" not in err.getvalue()
"""


def run_under_limit(args, limit=1 << 30):
    """``python args`` with ftnet importable, in a child limited to ``limit``
    bytes of address space, so a missed size check fails and not the host."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
    )


def run_probe(script, *paths):
    """Run ``script`` after ``PROBE_PRELUDE`` under the limit, ``paths`` as ``ARGS``;
    the assertion of the example that failed ends its stderr."""
    run = run_under_limit(["-c", PROBE_PRELUDE + script, *map(str, paths)])
    assert run.returncode == 0, run.stderr[-4000:]
