"""Shared error types and the field checks that plan dataclasses run."""

from numbers import Integral, Real


class ConfigError(ValueError):
    """A configuration value violates its invariants.

    `problems` lists every violation found. Those raised by `check` start
    with the name of the field at fault, so a run config can prefix its
    section name.
    """

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = problems


def is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def count(low: int | None = None, nullable: bool = False):
    """Rule: an int (never a bool or float) >= low; None too if nullable."""
    what = "an int" + (f" >= {low}" if low is not None else "")
    return (lambda v: (nullable and v is None)
            or (is_int(v) and (low is None or v >= low)),
            what + (" or null" if nullable else ""))


def number(holds, what: str):
    """Rule: an int or float for which `holds` is true."""
    return (lambda v: is_number(v) and holds(v)), what


POSITIVE = number(lambda v: v > 0, "a positive number")
PATH = (lambda v: v is None or isinstance(v, str)), "a path string"


def check(obj, **rules) -> None:
    """Raise one ConfigError naming every field whose (holds, what) rule fails."""
    failed = [f"{name}: expected {what}, got {getattr(obj, name)!r}"
              for name, (holds, what) in rules.items()
              if not holds(getattr(obj, name))]
    if failed:
        raise ConfigError(*failed)
