"""Rejects std::unordered_map / std::unordered_set in src/.

Hash-container enumeration order is implementation-defined, so any protocol
decision, message emission or table row derived from iterating one can vary
across standard libraries -- silently breaking the byte-identical-tables
contract. Protocol code keys its tables by dense ids (peer ids, tree
positions) and so keeps them in vectors indexed by the id; a sparse key goes
in an ordered container (std::map/std::set). An exception needs an allow()
pragma with its reason; src/ has none.
"""

import re

from . import grep

NAME = "unordered-iteration"
DESCRIPTION = ("bans std::unordered_{map,set} in src/ (iteration order is "
               "implementation-defined)")

_PATTERN = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b"
                      r"|#\s*include\s*<unordered_(?:map|set)>")


def check(tree):
    from . import Finding

    for path in tree.files():
        if not path.startswith("src/"):
            continue
        for lineno, _ in grep(tree, path, _PATTERN):
            yield Finding(
                NAME, path, lineno,
                "unordered container in protocol code: iteration order is "
                "implementation-defined; use a vector indexed by the (dense) "
                "id or an ordered container")
