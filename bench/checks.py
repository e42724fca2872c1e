"""Compare one request's exit status and stdout with its expectation.

`check(expect, status, output)` returns None when the verdict is right and a
one-line reason otherwise. Only the benchmark's own plan data is used; the
package is never consulted.
"""

from __future__ import annotations

import json
from fractions import Fraction


def check(expect: dict, status, output: str) -> str | None:
    kind = expect["type"]
    want_status = 0 if kind != "verify" or expect["passed"] else 1
    if status != want_status:
        return f"exit status {status!r}, expected {want_status}"
    try:
        data = json.loads(output)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    return CHECKERS[kind](expect, data)


def _verify(expect: dict, report) -> str | None:
    if report.get("suite") != expect["suite"]:
        return f"suite {report.get('suite')!r}, expected {expect['suite']!r}"
    if report.get("passed") is not expect["passed"]:
        return f"verdict {report.get('passed')!r}, expected {expect['passed']!r}"
    if report.get("total") != expect["total"]:
        return f"total {report.get('total')!r}, expected {expect['total']}"
    failures = report.get("failures")
    if not isinstance(failures, list) or failures and expect["passed"]:
        return "failure list does not match the verdict"
    if expect["failures"] is not None and len(failures) != expect["failures"]:
        return f"{len(failures)} failures, expected {expect['failures']}"
    return None


def _parse_state(text, n: int, k: int) -> tuple[int, ...] | None:
    if not isinstance(text, str) or len(text) != n or not text.isdigit():
        return None
    g = tuple(int(c) for c in text)
    return g if max(g) < k else None


def _state_list(expect: dict, data, *, reverse: bool) -> str | None:
    """A lattice printed as digit strings: the expected count of distinct,
    sorted vectors, each monotone along every edge (reversed for ideals)."""
    if not isinstance(data, list) or len(data) != expect["count"]:
        size = len(data) if isinstance(data, list) else "?"
        return f"{size} states, expected {expect['count']}"
    k = expect.get("k", 2)
    edges = expect["edges"]
    previous = None
    for text in data:
        g = _parse_state(text, expect["n"], k)
        if g is None:
            return f"malformed state {text!r}"
        for u, v in edges:
            low, high = (g[v - 1], g[u - 1]) if reverse else (g[u - 1], g[v - 1])
            if low > high:
                return f"{text} is not monotone along edge {u} -> {v}"
        if previous is not None and g <= previous:
            return f"{text} is out of order or repeated"
        previous = g
    return None


def _states(expect: dict, data) -> str | None:
    return _state_list(expect, data, reverse=False)


def _ideals(expect: dict, data) -> str | None:
    return _state_list(expect, data, reverse=True)


def _generators(expect: dict, data) -> str | None:
    """One binomial per incomparable pair: the expected count, every pair a
    pair of incomparable states, meet and join coordinate-wise, no repeats."""
    if not isinstance(data, list) or len(data) != expect["count"]:
        size = len(data) if isinstance(data, list) else "?"
        return f"{size} generators, expected {expect['count']}"
    n, k, edges = expect["n"], expect["k"], expect["edges"]
    seen = set()
    for item in data:
        try:
            texts = (*item["pair"], item["meet"], item["join"])
        except (KeyError, TypeError, ValueError):
            return f"malformed generator {item!r}"
        g, h, meet, join = (_parse_state(t, n, k) for t in texts)
        if None in (g, h, meet, join):
            return f"malformed generator {item!r}"
        if any(g[u - 1] > g[v - 1] or h[u - 1] > h[v - 1] for u, v in edges):
            return f"pair {texts[:2]} is not a pair of states"
        if not (any(a < b for a, b in zip(g, h)) and any(a > b for a, b in zip(g, h))):
            return f"pair {texts[:2]} is comparable"
        if meet != tuple(map(min, g, h)) or join != tuple(map(max, g, h)):
            return f"pair {texts[:2]} has the wrong meet or join"
        key = frozenset((g, h))
        if key in seen:
            return f"pair {texts[:2]} is repeated"
        seen.add(key)
    return None


def _values(expect: dict, data) -> str | None:
    if not isinstance(data, dict) or set(data) != set(expect["values"]):
        return "states differ from the lattice"
    try:
        got = {g: Fraction(v) for g, v in data.items()}
    except (TypeError, ValueError, ZeroDivisionError):
        return "a value is not a rational"
    for g, text in expect["values"].items():
        if got[g] != Fraction(text):
            return f"value at {g} is {data[g]}, expected {text}"
    return None


def _distribution(expect: dict, data) -> str | None:
    reason = _values(expect, data)
    if reason is None and sum(Fraction(v) for v in data.values()) != 1:
        return "probabilities do not sum to exactly 1"
    return reason


def _zeta(expect: dict, data) -> str | None:
    reason = _values(expect, data)
    if reason is None and Fraction(data[max(data)]) != 1:
        return "cumulative coordinate at the top state is not 1"
    return reason


def _eval(expect: dict, data) -> str | None:
    if not isinstance(data, list) or len(data) != len(expect["values"]):
        return "wrong number of evaluated polynomials"
    for item, text in zip(data, expect["values"]):
        if Fraction(item["value"]) != Fraction(text):
            return f"{item['polynomial'][:40]}... = {item['value']}, expected {text}"
    return None


CHECKERS = {
    "verify": _verify,
    "states": _states,
    "ideals": _ideals,
    "generators": _generators,
    "distribution": _distribution,
    "zeta": _zeta,
    "eval": _eval,
}
