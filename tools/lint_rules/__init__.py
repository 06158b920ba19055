"""Rule registry for tools/lint.py.

Each rule module defines:
  NAME         kebab-case identifier (used by --rules and allow() pragmas)
  DESCRIPTION  one line for --list-rules
  check(tree)  generator of Finding tuples over a SourceTree

Add a rule: drop a module here, import it below, append to ALL_RULES, and
add a bad/ + good/ fixture pair under testdata/<name>/ (the selftest
refuses to pass without one). Delete a rule together with its
testdata/<name>/: the selftest also fails on a fixture directory that no
registered rule claims.
"""

import collections
import os
import re

Finding = collections.namedtuple("Finding", ["rule", "path", "line", "message"])

_CPP_EXTS = (".cc", ".h")
_SCAN_DIRS = ("src", "bench", "tests", "examples")

# // and /* */ comments plus string literals are masked before pattern
# rules run, so prose like "uses rand()" in a comment never trips a rule.
_COMMENT_OR_STRING_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:[^"\\\n]|\\.)*"', re.DOTALL)


def _mask(match):
    return "".join(c if c == "\n" else " " for c in match.group(0))


class SourceTree(object):
    """Lazy file-content cache over the scanned directories of one root."""

    def __init__(self, root):
        self.root = root
        self._raw = {}
        self._code = {}
        self._paths = None

    def files(self):
        """Repo-relative paths of every C++ file under the scan dirs,
        sorted for deterministic output."""
        if self._paths is None:
            paths = []
            for top in _SCAN_DIRS:
                top_abs = os.path.join(self.root, top)
                for dirpath, _, names in os.walk(top_abs):
                    for name in names:
                        if name.endswith(_CPP_EXTS):
                            full = os.path.join(dirpath, name)
                            paths.append(
                                os.path.relpath(full, self.root))
            self._paths = sorted(paths)
        return self._paths

    def text(self, path):
        if path not in self._raw:
            with open(os.path.join(self.root, path),
                      encoding="utf-8", errors="replace") as fh:
                self._raw[path] = fh.read()
        return self._raw[path]

    def code(self, path):
        """File text with comments and string literals blanked out
        (newlines preserved, so line numbers survive)."""
        if path not in self._code:
            self._code[path] = _COMMENT_OR_STRING_RE.sub(
                _mask, self.text(path))
        return self._code[path]

    def lines(self, path):
        return self.text(path).split("\n")

    def code_lines(self, path):
        return self.code(path).split("\n")


def grep(tree, path, pattern, masked=True):
    """Yields (lineno, line) for every line of `path` matching `pattern`
    (over comment/string-masked code by default)."""
    lines = tree.code_lines(path) if masked else tree.lines(path)
    for lineno, line in enumerate(lines, start=1):
        if pattern.search(line):
            yield lineno, line


from . import nondeterminism     # noqa: E402
from . import unordered_iteration  # noqa: E402
from . import io_discipline      # noqa: E402
from . import include_layering   # noqa: E402
from . import no_const_cast      # noqa: E402
from . import check_side_effects  # noqa: E402
from . import check_float_format  # noqa: E402
from . import adapter_surface    # noqa: E402
from . import benchsuite_shims   # noqa: E402

ALL_RULES = [
    nondeterminism,
    unordered_iteration,
    io_discipline,
    include_layering,
    no_const_cast,
    check_side_effects,
    check_float_format,
    adapter_surface,
    benchsuite_shims,
]
