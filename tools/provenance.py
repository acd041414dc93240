"""
What names the code and hardware a measurement came from: the commit of
the imported `bsbimod`, whether its source had uncommitted changes, a
SHA-256 over its source files, the Python version and the machine.  The
scale scripts in this directory write it into their JSON output.
"""

import hashlib
import os
import platform
import subprocess

import bsbimod


def _git(src_dir: str, *args: str):
    try:
        out = subprocess.run(["git", "-C", src_dir, *args], check=True,
                             capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.strip()


def provenance() -> dict:
    src_dir = os.path.dirname(os.path.abspath(bsbimod.__file__))
    commit = _git(src_dir, "rev-parse", "HEAD")
    status = _git(src_dir, "status", "--porcelain", "--", ".")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(),
                    "cpu_count": os.cpu_count()},
    }
