"""Keeps cross-backend decisions out of the overlay adapters.

overlay::Overlay (src/overlay/overlay.{h,cc}) owns the simulated network,
route-cache invalidation on join/leave/fail and the checked downcast, so
an adapter holds only backend facts: name, capabilities, build salt,
retry links, RouteHint, the fast-table walk and one-line Do* forwards.
This rule keeps a new backend's adapter (src/overlay/*_overlay.{h,cc})
from copying those decisions back:

  * a net::Network object of its own -- build the backend on network();
  * a call to InvalidateRange/InvalidatePeer -- the base invalidates from
    RouteHint around every membership op;
  * dynamic_cast -- use overlay::As<Adapter>.
"""

import re

from . import grep

NAME = "adapter-surface"
DESCRIPTION = ("overlay adapters own no net::Network, invalidate no cache "
               "routes and do no dynamic_cast (the Overlay base does)")

_ADAPTER_RE = re.compile(r"^src/overlay/[^/]+_overlay\.(?:h|cc)$")

_CHECKS = [
    (re.compile(r"(?<![\w:])(?:net::)?Network\s+\w+\s*[;{=]"),
     "adapter holds its own net::Network: build the backend on "
     "Overlay::network(), which the base owns"),
    (re.compile(r"Invalidate(?:Range|Peer)\s*\("),
     "adapter invalidates route-cache entries: Overlay::Join/Leave/Fail "
     "do it from RouteHint"),
    (re.compile(r"\bdynamic_cast\s*<"),
     "dynamic_cast in an adapter: use overlay::As<Adapter>"),
]


def check(tree):
    from . import Finding

    for path in tree.files():
        if not _ADAPTER_RE.match(path):
            continue
        for pattern, message in _CHECKS:
            for lineno, _ in grep(tree, path, pattern):
                yield Finding(NAME, path, lineno, message)
