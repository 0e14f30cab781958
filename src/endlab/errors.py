"""Shared exception types and spec-shape checks."""


class BudgetExceeded(RuntimeError):
    """An enumeration hit its element cap before finishing."""


def expect(value, kind, where):
    """value, if it is a JSON object (kind dict) or array (kind list).

    Anything else raises ValueError naming the spec field `where`.
    """
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ValueError(f"{where} must be {what}, got {type(value).__name__}")
    return value
