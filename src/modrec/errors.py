"""Exception hierarchy shared across the package.

Two failure classes are kept apart deliberately: bad input versus a broken
mathematical identity.  The CLI maps them to distinct exit codes (1 and 2)
so that automation can tell "you gave me garbage" from "the mathematics
disagrees with itself", which is the whole point of the cross-checks.
"""


class ModrecError(Exception):
    """Base class for all package errors."""


class ValidationError(ModrecError):
    """Invalid input, unmet precondition, or malformed configuration."""


class InvariantViolation(ModrecError):
    """A mathematical identity or structural invariant failed.

    Raising this signals a bug (or a falsified configuration), never a
    user mistake.
    """


def check_budget(what, unit, charge, limit):
    """Refuse work charged past its limit, before any of it is done.

    Raises ValidationError, reported on one ``error:`` line, in the one form
    ``<what>: <unit> = <charge> exceeds the limit <limit>`` when
    charge > limit.  README.md lists every limit with its charge.  The charge
    is shown by ``shown``, and so is every request integer in ``what``.
    """
    if charge > limit:
        raise ValidationError("%s: %s = %s exceeds the limit %s"
                              % (what, unit, shown(charge), limit))


def weighted(count, bits):
    """``count`` operations on coefficients of about ``bits`` bits, each
    weighted 1 + bits / 512 and rounded up: an int charge that passes an int
    limit exactly when the unrounded one does."""
    return -(-count * (512 + bits) // 512)


def shown(value):
    """A non-negative int as a message shows it: itself, or past int -> str's
    digit guard the power of two below it, so formatting it never raises."""
    if value.bit_length() > 10_000:
        return "at least 2^%d" % (value.bit_length() - 1)
    return value
