"""Build and load the ``_scan`` C extension (see ``_scan.c``): the
native tokenizer and in-body tree builder of ``parser.parse``, the
native ``dom.release`` and the native span walk of
``extract.extract_spans``.

The extension is compiled once, at first import, with the running
interpreter's own compiler, include directory and ``EXT_SUFFIX``
(``sysconfig``), into ``__pycache__/_scan-<sha256[:16]><EXT_SUFFIX>``
beside this file; the digest of the C source names the file, so an
edited source builds anew and an unchanged one is never rebuilt.
Each process compiles to a pid-unique temporary file and renames it
into place, so processes importing at the same moment do not race.
When the build or the load fails, ``load_scan`` logs one WARNING and
returns ``None``; the parser then tokenizes and builds every token in
Python, ``parser.release`` is ``dom.release`` and ``extract_spans``
walks in Python.
"""

from __future__ import annotations

import hashlib
import importlib.util
import logging
import os
import shlex
import subprocess
import sysconfig

_log = logging.getLogger(__name__)
_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_scan.c")


def _compile(target: str) -> None:
    ldshared = sysconfig.get_config_var("LDSHARED")
    if not ldshared:
        raise OSError("sysconfig names no LDSHARED compiler command")
    tmp = f"{target}.{os.getpid()}.tmp"
    cmd = [*shlex.split(ldshared),
           *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
           "-O2", "-I", sysconfig.get_paths()["include"],
           _SOURCE, "-o", tmp]
    os.makedirs(os.path.dirname(target), exist_ok=True)
    try:
        subprocess.run(cmd, check=True, capture_output=True, text=True,
                       timeout=60)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_scan():
    """The ``_scan`` extension module, built if needed; None if it
    cannot be built or loaded."""
    try:
        with open(_SOURCE, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()[:16]
        target = os.path.join(
            _HERE, "__pycache__",
            f"_scan-{digest}{sysconfig.get_config_var('EXT_SUFFIX')}")
        if not os.path.exists(target):
            _compile(target)
        spec = importlib.util.spec_from_file_location(
            f"{__package__}._scan", target)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    except (OSError, ImportError, subprocess.SubprocessError) as e:
        detail = getattr(e, "stderr", None) or str(e)
        if isinstance(detail, bytes):       # TimeoutExpired keeps bytes
            detail = detail.decode(errors="replace")
        _log.warning("native HTML builder unavailable, parsing in "
                     "Python: %s", detail[-2000:])
        return None
