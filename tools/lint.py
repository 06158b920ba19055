#!/usr/bin/env python3
"""BATON determinism & layering lint.

Walks the C++ tree and rejects constructions that would silently break the
repo's core reproducibility contract: identical inputs must produce
byte-identical bench tables on every machine, every run, at every thread
count. The compiler cannot enforce that -- this lint can.

Usage:
  tools/lint.py [--root=DIR] [--rules=a,b,...] [--list-rules] [--selftest]

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage error.

Rules live in tools/lint_rules/ (one module per rule); each declares NAME,
DESCRIPTION and a check(tree) generator yielding Finding tuples. A finding
on line L is suppressed when line L or L-1 carries the pragma

    // lint: allow(<rule-name>) -- <reason>

The reason is mandatory: a suppression without `--` text is itself a
finding. See tools/lint_rules/testdata/ for one positive and one negative
fixture per rule (run via --selftest, registered in ctest as
lint_selftest).
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lint_rules import ALL_RULES, SourceTree  # noqa: E402  (sys.path setup)

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z0-9_-]+)\)(\s*--\s*\S.*)?")


def suppressed(tree, finding):
    """True when the finding's line (or the one above) allows its rule."""
    lines = tree.lines(finding.path)
    for lineno in (finding.line, finding.line - 1):
        if 1 <= lineno <= len(lines):
            m = ALLOW_RE.search(lines[lineno - 1])
            if m and m.group(1) == finding.rule:
                return True
    return False


def check_pragmas(tree, rule_names):
    """Pragma hygiene: every allow() must name a real rule and give a
    reason, so suppressions stay auditable."""
    from lint_rules import Finding

    for path in tree.files():
        for lineno, line in enumerate(tree.lines(path), start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            if m.group(1) not in rule_names:
                yield Finding(
                    "pragma", path, lineno,
                    "allow() names unknown rule '%s'" % m.group(1))
            elif not m.group(2):
                yield Finding(
                    "pragma", path, lineno,
                    "allow(%s) needs a reason: '-- <why>'" % m.group(1))


def run_rules(root, rules):
    tree = SourceTree(root)
    findings = []
    for rule in rules:
        for f in rule.check(tree):
            if not suppressed(tree, f):
                findings.append(f)
    all_names = {r.NAME for r in ALL_RULES}
    findings.extend(check_pragmas(tree, all_names))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def selftest(repo_root):
    """Runs every rule over its fixture corpus: the bad/ mini-tree must
    produce at least one finding of that rule, the good/ mini-tree none."""
    testdata = os.path.join(repo_root, "tools", "lint_rules", "testdata")
    failures = []
    # A fixture directory no registered rule claims would never run, e.g.
    # one left behind by a deleted rule.
    claimed = {rule.NAME for rule in ALL_RULES} | {"pragma"}
    for name in sorted(os.listdir(testdata)):
        if name not in claimed:
            failures.append("testdata/%s/ belongs to no registered rule" % name)
    for rule in ALL_RULES:
        for kind, want in (("bad", True), ("good", False)):
            fixture = os.path.join(testdata, rule.NAME, kind)
            if not os.path.isdir(fixture):
                failures.append("%s: missing fixture %s/" % (rule.NAME, kind))
                continue
            found = [f for f in run_rules(fixture, [rule])
                     if f.rule == rule.NAME]
            if want and not found:
                failures.append(
                    "%s: bad/ fixture produced no finding" % rule.NAME)
            elif not want and found:
                failures.append(
                    "%s: good/ fixture produced findings: %s"
                    % (rule.NAME, ["%s:%d" % (f.path, f.line) for f in found]))
    # Pragma machinery has its own fixture pair (suppression + bad pragma).
    pragma_dir = os.path.join(testdata, "pragma")
    bad = run_rules(os.path.join(pragma_dir, "bad"), ALL_RULES)
    if not any(f.rule == "pragma" for f in bad):
        failures.append("pragma: bad/ fixture produced no pragma finding")
    good = run_rules(os.path.join(pragma_dir, "good"), ALL_RULES)
    if good:
        failures.append(
            "pragma: good/ fixture (valid suppression) produced findings: %s"
            % ["%s:%d %s" % (f.path, f.line, f.rule) for f in good])
    if failures:
        for msg in failures:
            print("SELFTEST FAIL: %s" % msg)
        return 1
    print("lint selftest: %d rules + pragma machinery OK" % len(ALL_RULES))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--rules", default=None,
                        help="comma list restricting which rules run")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    repo_root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.list_rules:
        for rule in ALL_RULES:
            print("%-22s %s" % (rule.NAME, rule.DESCRIPTION))
        return 0
    if args.selftest:
        return selftest(args.root or os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))

    rules = ALL_RULES
    if args.rules:
        wanted = set(args.rules.split(","))
        known = {r.NAME for r in ALL_RULES}
        unknown = wanted - known
        if unknown:
            print("unknown rule(s): %s (have: %s)"
                  % (",".join(sorted(unknown)), ",".join(sorted(known))))
            return 2
        rules = [r for r in ALL_RULES if r.NAME in wanted]

    findings = run_rules(repo_root, rules)
    for f in findings:
        print("%s:%d: [%s] %s" % (f.path, f.line, f.rule, f.message))
    if findings:
        print("\n%d finding(s). Suppress a deliberate exception with\n"
              "  // lint: allow(<rule>) -- <reason>\n"
              "on (or directly above) the flagged line." % len(findings))
        return 1
    print("lint: clean (%d rules over %s)" % (len(rules), repo_root))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
