"""Exception types shared across the library, and the checks that
refuse a bad accuracy parameter, integer or pair of domains with them."""

import numbers


class CondtestError(Exception):
    """Base class for all library errors."""


class NegativeWeight(CondtestError):
    pass


class NonFiniteWeight(CondtestError):
    pass


class ZeroTotalMass(CondtestError):
    pass


class DomainMismatch(CondtestError):
    pass


class BadQuerySet(CondtestError):
    pass


class ZeroMassSet(CondtestError):
    """Raised when a conditional query lands on a set of zero probability.

    Mirrors the oracle failure rule: conditioning on a zero-mass set
    terminates the caller.
    """


class IllegalShapeForModel(CondtestError):
    pass


class DisciplineViolation(CondtestError):
    pass


class SetsNotDisjoint(CondtestError):
    pass


class NotInNoGapRegime(CondtestError):
    pass


class OddN(CondtestError):
    pass


class DomainTooLarge(CondtestError):
    pass


class BadBlockGeometry(CondtestError):
    pass


class BadGeneratorParam(CondtestError, ValueError):
    """A hard-instance generator's parameter is out of range."""


class EvalFailed(CondtestError):
    """The multiplicative weight estimator exhausted its round budget."""


class IncompatibleOracleModel(CondtestError):
    pass


class SpecParseError(CondtestError):
    pass


class BadEpsilon(CondtestError):
    """The accuracy parameter must lie strictly between 0 and 1."""


def check_eps(eps):
    """Refuse an accuracy parameter that is no real number, or outside
    the open interval (0, 1); NaN and infinities fail the comparison."""
    if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not 0.0 < eps < 1.0:
        raise BadEpsilon(f"eps must lie strictly between 0 and 1, got {eps!r}")


def check_same_domain(n1, n2):
    """Refuse a tester's two inputs, two oracles or an oracle and a
    target, unless they have one domain size."""
    if n1 != n2:
        raise DomainMismatch(f"the two inputs have domain sizes {n1} and {n2}")


class BadDrawCount(CondtestError):
    """A number of draws must be an integer of at least zero."""


def check_draws(m):
    """Refuse a draw count that is no integer, a bool, or negative. An
    int skips the isinstance checks, which cost some hundreds of ns."""
    if (type(m) is not int and (isinstance(m, bool) or not isinstance(m, numbers.Integral))
            or m < 0):
        raise BadDrawCount(f"a draw count must be an integer >= 0, got {m!r}")


def as_integer(value, name, error):
    """value as an int, numpy integers too; error if no integer, or a bool.
    An int skips the isinstance checks, as in check_draws."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


class UnknownTester(CondtestError):
    pass


class BadTrialCount(CondtestError):
    """An experiment needs an integer number of trials, at least one."""


class BadSeed(CondtestError):
    """A seed must be an integer."""


class BadProfile(CondtestError):
    """No such preset or profile file, not JSON, an unknown base or key,
    or a value of the wrong type or out of range."""


class BadSweepGrid(CondtestError):
    """A sweep needs at least one domain size, and its fit takes
    log(log2 N), so every N must be an integer of at least 2."""


class BadReport(CondtestError, ValueError):
    """A CSV or JSON report write_csv or write_json could not have written."""
