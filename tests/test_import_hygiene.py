"""What ``import zetakit`` loads: the standard library only, and neither
the identity harness, which loads on first use, nor ``dataclasses`` and
``inspect``, which the records do without.  Each check runs in a fresh
interpreter started without ``site`` (``-S``), so nothing is loaded before
it but the interpreter's own start-up modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetakit

SRC = str(Path(zetakit.__file__).resolve().parents[1])


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_the_standard_library_only_and_not_the_harness():
    out = run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import zetakit\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'zetakit'}))\n"
        "print(sorted(m for m in ('zetakit.identities', 'json', 'dataclasses', 'inspect')\n"
        "             if m in sys.modules))\n"
    )
    assert out.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize("first_use", [
    "zetakit.identities",
    "zetakit.build_catalog",
    "from zetakit import identities",
    "from zetakit import *\nassert all(name in globals() for name in zetakit.__all__)",
])
def test_harness_names_resolve_on_first_use(first_use):
    out = run_fresh(
        "import sys\n"
        "import zetakit\n"
        f"{first_use}\n"
        "harness = sys.modules['zetakit.identities']\n"
        "assert zetakit.identities is harness\n"
        "for name in ('QUICK_SUBSET', 'IdentityReport', 'IdentitySpec', 'build_catalog',\n"
        "             'check', 'reports_to_json', 'run_catalog'):\n"
        "    assert getattr(zetakit, name) is getattr(harness, name)\n"
        "try:\n"
        "    zetakit.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    assert out == "ok\n"


def test_cli_eval_leaves_the_harness_unloaded():
    out = run_fresh(
        "import contextlib, io, sys\n"
        "from zetakit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['eval', '--fn', 'zeta', '--s', '2'])\n"
        "print(rc, 'zetakit.identities' in sys.modules)\n"
    )
    assert out == "0 False\n"
