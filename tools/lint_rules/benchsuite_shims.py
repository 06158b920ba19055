"""Keeps the two shims benchsuite/bench_suite.cc needs out of other code.

The benchmark program may not change, and it still names two things the
library no longer uses:

  * sim::EventQueue -- now only `using EventQueue = Clock;` in
    src/sim/event_queue.h; everything else names sim::Clock;
  * net::FaultInjector::OnOpBegin -- an empty virtual that nothing calls,
    declared in src/net/network.h so bench_suite.cc's override compiles.

This rule flags either name anywhere else under the scanned directories,
comments included, so both shims can be deleted together with
bench_suite.cc's uses without hunting for new callers first.
"""

import re

from . import grep

NAME = "benchsuite-shims"
DESCRIPTION = ("EventQueue only in src/sim/event_queue.h, OnOpBegin only in "
               "its declaration in src/net/network.h")

_EVENT_QUEUE_RE = re.compile(r"\bEventQueue\b")
_EVENT_QUEUE_HOME = "src/sim/event_queue.h"

_ON_OP_BEGIN_RE = re.compile(r"\bOnOpBegin\b")
_ON_OP_BEGIN_HOME = "src/net/network.h"
_ON_OP_BEGIN_DECL_RE = re.compile(r"^\s*virtual\s+void\s+OnOpBegin\s*\(\s*\)")


def check(tree):
    from . import Finding

    for path in tree.files():
        if path != _EVENT_QUEUE_HOME:
            for lineno, _ in grep(tree, path, _EVENT_QUEUE_RE, masked=False):
                yield Finding(
                    NAME, path, lineno,
                    "sim::EventQueue is a benchsuite-only alias: name "
                    "sim::Clock")
        for lineno, line in grep(tree, path, _ON_OP_BEGIN_RE, masked=False):
            if path == _ON_OP_BEGIN_HOME and _ON_OP_BEGIN_DECL_RE.match(line):
                continue
            yield Finding(
                NAME, path, lineno,
                "FaultInjector::OnOpBegin is a benchsuite-only shim: "
                "nothing may override or call it")
