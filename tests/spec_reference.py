"""Test-local references for product specs: set membership and the weight
f(n) read one member at a time, and a writer of the JSON wire format.

The routes walk ``members_upto`` and ``by_n`` instead; these per-member
readings are the direct definitions the tests check them against.
"""

import json

from divprod.products import SET_EXPLICIT, SET_RESIDUE_UNION, WEIGHT_LINEAR, WEIGHT_TABLE


def contains(s, n: int) -> bool:
    """Whether the set descriptor ``s`` holds n."""
    if n < 1:
        return False
    if not s.classes:
        return n in s.members
    return any(n % m == r for r, m in s.classes)


def f_value(w, n: int):
    """The weight f(n) of the weight spec ``w`` at a set member n."""
    if w.c is not None:
        return w.c * n
    if n not in w.by_n:
        raise ValueError(f"table weight missing for required n={n}")
    return w.by_n[n]


def _set_doc(s) -> dict:
    if s.classes:
        return {"kind": SET_RESIDUE_UNION, "classes": [list(c) for c in s.classes]}
    return {"kind": SET_EXPLICIT, "members": list(s.members)}


def _weight_doc(w) -> dict:
    if w.c is not None:
        return {"kind": WEIGHT_LINEAR, "c": str(w.c)}
    return {"kind": WEIGHT_TABLE, "values": {str(n): str(v) for n, v in w.values}}


def spec_to_json(spec) -> str:
    """The spec as a wire document: a set as its classes or its members, a
    weight as its c or its table."""
    return json.dumps({
        "shift": spec.shift,
        "factors": [{"set": _set_doc(f.set), "weight": _weight_doc(f.weight)}
                    for f in spec.factors],
    })
