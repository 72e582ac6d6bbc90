"""Parser for the per-module report of ``python -X importtime``."""

from __future__ import annotations

import re

_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)\s*$")


def _belongs(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def cumulative_us(report: str, packages) -> dict[str, int]:
    """Microseconds spent importing each top-level package, children included.

    The report lists every module after the modules it imported, indented two
    spaces per nesting level.  A package's total is the cumulative time of its
    outermost entries: those with no enclosing entry of the same package.
    Subpackages imported from elsewhere (``scipy.linalg`` from ``homcone.cone``)
    count towards their package.
    """
    totals = {p: 0 for p in packages}
    entries = []
    for line in report.splitlines():
        m = _LINE.match(line)
        if m:
            depth = (len(m.group(3)) - 1) // 2
            entries.append((depth, m.group(4), int(m.group(2))))
    stack: list[tuple[int, str]] = []  # enclosing entries, outermost first
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for p in packages:
            if _belongs(name, p) and not any(_belongs(a, p) for _, a in stack):
                totals[p] += cumulative
        stack.append((depth, name))
    return totals
