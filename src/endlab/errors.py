"""Shared exception types and spec-shape checks."""


class BudgetExceeded(RuntimeError):
    """An enumeration hit its element cap before finishing."""


class InternalInconsistency(RuntimeError):
    """An internal invariant failed: a defect in endlab, not in the input."""


# JSON kinds a spec field may be required to have; ids are strings or integers
KIND_NAMES = {
    dict: "an object",
    list: "a list",
    int: "an integer",
    str: "a string",
    (str, int): "a string or an integer",
}


def expect(value, kind, where):
    """value, if it has the JSON kind named by a key of KIND_NAMES.

    Booleans never count as integers.  Anything else raises ValueError
    naming the spec field `where`.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{where} must be {KIND_NAMES[kind]}, got {type(value).__name__}")
    return value


def required(record, key, where, kind=None):
    """record[key], the spec field `where`, which must be present and, when
    kind is given, of that JSON kind (see expect); else ValueError naming it."""
    if key not in record:
        raise ValueError(f"{where} is missing")
    return record[key] if kind is None else expect(record[key], kind, where)


def one_of(value, allowed, where):
    """value, if it is one of the strings in allowed; else ValueError naming
    the spec field `where` and the allowed values."""
    if not (isinstance(value, str) and value in allowed):
        raise ValueError(f"{where} must be one of {', '.join(map(repr, allowed))}, got {value!r}")
    return value
