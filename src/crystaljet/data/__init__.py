"""Embedded datasets.

All ``.dat`` files are line-oriented text: blank lines and lines starting
with ``#`` are ignored; integer matrices use row-major bracket syntax
``[[a,b],[c,d]]``.  Per-file grammars are documented in the file headers.
"""

import os
from importlib import resources

import yaml


def load_text(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text()


def load_lines(name: str) -> list[str]:
    out = []
    for raw in load_text(name).splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def data_path(name: str):
    """Filesystem path of a packaged data file (for CLI convenience)."""
    return resources.files(__package__).joinpath(name)


def load_document(source) -> dict:
    """A YAML mapping from a dict, a path to an existing file, or the
    document text itself.  A string is read as a file only when that file
    exists, so a one-line flow document parses as text."""
    if isinstance(source, dict):
        return source
    if isinstance(source, os.PathLike) or os.path.isfile(source):
        with open(source) as fh:
            doc = yaml.safe_load(fh)
    else:
        doc = yaml.safe_load(source)
    if not isinstance(doc, dict):
        raise ValueError(f"{str(source)[:60]!r} is neither an existing file nor a YAML mapping")
    return doc
