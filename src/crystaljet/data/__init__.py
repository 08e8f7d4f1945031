"""Embedded datasets.

All ``.dat`` files are line-oriented text: blank lines and lines starting
with ``#`` are ignored; integer matrices use row-major bracket syntax
``[[a,b],[c,d]]``.  Per-file grammars are documented in the file headers.

Every ``.dat`` file but ``errata.dat`` (``a | b | c`` lines, read with
`load_lines`) is a run of blocks, read with `load_blocks`: a header line
``<opener> <token> ...``, body lines of tokens, then ``end``.  The next
header with the same opener also ends a block, so a one-line record such
as ``wallpaper-row`` is a block with no body.  Tokens are separated by
whitespace; a matrix literal is one token.
"""

import os
from importlib import resources

import yaml


class _YamlLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, libyaml's parser when PyYAML was built with it, that
    refuses a mapping key given twice instead of keeping the last value."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node, deep)
            if key in seen:
                raise ValueError(f"the key {key!r} is repeated on line {key_node.start_mark.line + 1}")
            seen.add(key)
        return mapping


def load_text(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text()


def load_lines(name: str) -> list[str]:
    out = []
    for raw in load_text(name).splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def load_blocks(name: str, opener: str) -> list[tuple[list[str], list[list[str]]]]:
    """The ``<opener>`` blocks of a data file, in file order, each as (its
    header tokens after the opener, the token rows of its body).  Lines
    before the first such header, or after an ``end`` and before the next,
    are skipped, so one file can hold blocks of several openers
    (``appendix_a.dat`` does)."""
    blocks = []
    body = None
    for line in load_lines(name):
        tokens = line.split()
        if tokens[0] == opener:
            body = []
            blocks.append((tokens[1:], body))
        elif line == "end":
            body = None
        elif body is not None:
            body.append(tokens)
    return blocks


def data_path(name: str):
    """Filesystem path of a packaged data file (for CLI convenience)."""
    return resources.files(__package__).joinpath(name)


def load_document(source) -> dict:
    """A YAML mapping from a dict, a path to an existing file, or the
    document text itself.  A string is read as a file only when that file
    exists, so a one-line flow document parses as text.  A mapping key
    given twice raises ValueError."""
    if isinstance(source, dict):
        return source
    if isinstance(source, os.PathLike) or os.path.isfile(source):
        with open(source) as fh:
            doc = yaml.load(fh, Loader=_YamlLoader)
    else:
        doc = yaml.load(source, Loader=_YamlLoader)
    if not isinstance(doc, dict):
        raise ValueError(f"{str(source)[:60]!r} is neither an existing file nor a YAML mapping")
    return doc
