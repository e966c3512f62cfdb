"""Exception types shared across the library."""


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


class UnknownTester(CondtestError):
    pass


class BadTrialCount(CondtestError):
    """An experiment needs at least one trial."""


class BadProfile(CondtestError):
    """No such preset or profile file, not JSON, an unknown base or key,
    or a value of the wrong type or out of range."""


class BadSweepGrid(CondtestError):
    """A sweep's fit takes log(log2 N), so every N must be at least 2."""


class BadReport(CondtestError, ValueError):
    """A CSV or JSON report write_csv or write_json could not have written."""
