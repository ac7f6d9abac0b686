"""Exception types shared across the package."""


class SolvcoError(Exception):
    """Base class for all errors raised by this package."""


class CheckFailed(SolvcoError):
    """An exact identity that certifies a computed result does not hold."""


class JacobiViolation(SolvcoError):
    """Structure constants violate the Jacobi identity."""

    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = residual
        i, j, k = triple
        if isinstance(residual, (tuple, list)):
            shown = "(" + ", ".join(str(c) for c in residual) + ")"
        else:
            shown = str(residual)
        super().__init__(
            f"Jacobi identity fails on basis triple ({i},{j},{k}); residual {shown}"
        )


class NotSolvable(SolvcoError):
    """Operation requires a solvable Lie algebra."""


class DecompositionInvalid(SolvcoError):
    """A proposed complement/nilpotent-ideal decomposition fails a clause."""

    def __init__(self, clause, detail=""):
        self.clause = clause
        msg = f"decomposition invalid ({clause})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotRationallySplittable(SolvcoError):
    """Semisimple operator has an irreducible factor of degree >= 3 with
    non-real roots; the split/compact decomposition is not rational."""


class NotUnipotent(SolvcoError):
    """Matrix minus the identity is not nilpotent."""


class NonCommutingTorus(SolvcoError):
    """Kill-map operators fail the required commutation relations."""


class NotNilpotent(SolvcoError):
    """Full-mode modified bracket did not produce a nilpotent algebra."""


class NotQuasiUnipotent(SolvcoError):
    """Holonomy matrix has an eigenvalue that is not a root of unity."""


class DimensionTooLarge(SolvcoError):
    """A structure file declares a dimension above its bound, or the complex
    asked for has more basis forms than the configured bound."""


class ParseError(SolvcoError):
    """Input file does not match the expected grammar."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")


class UnknownName(SolvcoError):
    """No catalog entry with the requested name."""
