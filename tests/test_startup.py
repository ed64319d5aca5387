"""Start-up cost of the command line.  Every `wmha` call first imports
`wmha.cli`, so that import loads no module that only introspection or
error reporting needs: `dataclasses` (which brings `inspect`, `ast` and
`dis`) and `traceback`, which `cli.main` imports on its error path.  Nor
does it load `argparse` (which brings `gettext` and `locale`), since
`cli` reads argv itself, `fractions` (which brings `decimal`), which
only `Scalar.re` and `Scalar.im` import, or `hashlib` (which brings
OpenSSL's `_hashlib`), since `report.digest_of` takes sha256 from the
interpreter's own module."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import wmha
from wmha.report import digest_of

DEFERRED = ("dataclasses", "inspect", "ast", "dis", "traceback",
            "argparse", "gettext", "locale", "fractions", "decimal",
            "hashlib", "_hashlib")


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


def test_digest_is_hashlib_sha256_of_the_canonical_blob():
    for obj in ({}, {"b": [1, "2/3", None], "a": {"z": True, "y": "\u00e9"}}, ["x"] * 1000):
        blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        assert digest_of(obj) == hashlib.sha256(blob).hexdigest()
