"""Rejects stdout writes from library code.

Bench tables are diffed byte-for-byte across PRs, so the only code allowed
to write to stdout is the bench harness itself (src/bench_common/, which
owns table emission) and the bench/example binaries. A stray std::cout in
a protocol path would interleave with -- and corrupt -- the table stream.
stderr diagnostics (fprintf(stderr, ...), BATON_CHECK) are fine.
"""

import re

from . import grep

NAME = "io-discipline"
DESCRIPTION = "bans std::cout/printf/puts in src/ outside bench_common"

_ALLOWED_PREFIXES = (
    "src/bench_common/",
)

_PATTERN = re.compile(
    r"std::cout\b"                 # iostream stdout
    r"|(?<![\w])printf\s*\("       # printf( but not snprintf/fprintf/sprintf
    r"|\bputs\s*\("
    r"|\bfprintf\s*\(\s*stdout\b"
    r"|\bstd::puts\s*\(")


def check(tree):
    from . import Finding

    for path in tree.files():
        if not path.startswith("src/"):
            continue
        if any(path.startswith(p) for p in _ALLOWED_PREFIXES):
            continue
        for lineno, _ in grep(tree, path, _PATTERN):
            yield Finding(
                NAME, path, lineno,
                "stdout write outside the bench harness: write to stderr "
                "or return data to the caller")
