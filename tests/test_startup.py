"""Start-up cost of the command line.  Every `wmha` call first imports
`wmha.cli`, so that import loads no module that only introspection or
error reporting needs: `dataclasses` (which brings `inspect`, `ast` and
`dis`) and `traceback`, which `cli.main` imports on its error path."""

import os
import subprocess
import sys
from pathlib import Path

import wmha

DEFERRED = ("dataclasses", "inspect", "ast", "dis", "traceback")


def test_cli_import_leaves_deferred_modules_unloaded():
    # the child must import the same wmha the parent tests, installed or not;
    # -S keeps site hooks from loading any of them first
    package_root = str(Path(wmha.__file__).resolve().parent.parent)
    python_path = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, wmha.cli; print('\\n'.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=python_path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "wmha.cli" in loaded
    assert sorted(loaded & set(DEFERRED)) == []
