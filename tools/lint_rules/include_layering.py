"""Enforces the src/ layering DAG via #include hygiene.

Each src/ subdirectory may only include headers from the layers below it
(e.g. protocol code must never reach up into the serving engine or the
bench harness). The allowed-dependency map *is* the architecture document;
a PR that needs a new edge changes this file in the same diff, which makes
the layering decision reviewable instead of accidental.
"""

import re

NAME = "include-layering"
DESCRIPTION = "src/<dir> may only #include from its allowed lower layers"

# dir -> set of other src/ dirs it may include from. util is the bottom.
ALLOWED = {
    "util": set(),
    "sim": {"util"},
    "net": {"sim", "util"},
    "obs": {"net", "util"},
    "fault": {"net", "sim", "util"},
    "cache": {"net", "util"},
    "baton": {"net", "replication", "util"},
    "replication": {"net", "util"},
    "chord": {"net", "util"},
    "d3tree": {"net", "util"},
    "multiway": {"net", "util"},
    "overlay": {"baton", "cache", "chord", "d3tree", "fault", "multiway",
                "net", "obs", "util"},
    "workload": {"net", "obs", "overlay", "util"},
    "serve": {"net", "obs", "overlay", "sim", "util", "workload"},
    "bench_common": {"baton", "obs", "overlay", "sim", "util", "workload"},
}

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([a-z_0-9]+)/[^"]+"')


def check(tree):
    from . import Finding

    for path in tree.files():
        if not path.startswith("src/"):
            continue
        parts = path.split("/")
        if len(parts) < 3:
            continue  # stray file directly under src/
        layer = parts[1]
        allowed = ALLOWED.get(layer)
        if allowed is None:
            yield Finding(
                NAME, path, 1,
                "directory src/%s/ has no entry in the layering map "
                "(tools/lint_rules/include_layering.py); declare its "
                "allowed dependencies" % layer)
            continue
        # Raw lines, not masked ones: the include path *is* a string
        # literal, which the comment/string masker would blank out.
        for lineno, line in enumerate(tree.lines(path), start=1):
            m = _INCLUDE_RE.match(line)
            if not m:
                continue
            target = m.group(1)
            if target == layer or target in allowed:
                continue
            yield Finding(
                NAME, path, lineno,
                "src/%s/ may not include src/%s/ (allowed: %s); if this "
                "edge is intentional, add it to the layering map in the "
                "same PR" % (layer, target,
                             ", ".join(sorted(allowed)) or "none"))
