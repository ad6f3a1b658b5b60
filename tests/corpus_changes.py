"""What rewriting a recorded corpus moves, printed by the corpus writers before they overwrite it.

A record is read as fields by dotted path: a nested dict's keys extend the
path, a list's items share their list's path, and a string that holds JSON
(a CLI run's stdout, a float written by ``repr``) is read as that JSON.
"""

import json


def _leaves(value, path: str, out: dict) -> dict:
    """The record's leaves, each path mapped to the list of its values."""
    if isinstance(value, str):
        try:
            parsed = json.loads(value)
        except ValueError:
            parsed = value
        if not isinstance(parsed, str):
            return _leaves(parsed, path, out)
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        out.setdefault(path, [])
        for item in value:
            _leaves(item, path, out)
    else:
        out.setdefault(path, []).append(value)
    return out


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def report(name: str, old: list, new: list) -> str:
    """The records that ``new`` moves from ``old``, pairwise, and per field their count and largest change.

    The largest change of a field is over its numeric values; a field whose
    values change in kind or number reports its count only.
    """
    moved, fields = 0, {}
    for a, b in zip(old, new):
        la, lb = _leaves(a, "", {}), _leaves(b, "", {})
        changed = sorted(path for path in la.keys() | lb.keys() if la.get(path) != lb.get(path))
        moved += bool(changed)
        for path in changed:
            x, y = la.get(path, []), lb.get(path, [])
            count, largest = fields.get(path, (0, None))
            if len(x) == len(y) and all(_number(v) for v in x + y):
                largest = max([largest or 0, *(abs(v - u) for u, v in zip(x, y))])
            fields[path] = (count + 1, largest)
    lines = [f"{name}: {moved} of {len(new)} records move"]
    for path, (count, largest) in sorted(fields.items()):
        change = "" if largest is None else f", largest change {largest:.3g}"
        lines.append(f"  {path}: {count} records{change}")
    return "\n".join(lines)
