"""Shared exception types with stable CLI exit-code semantics."""


class InputError(ValueError):
    """Malformed input: unknown ids, bad shapes, violated preconditions (exit 2)."""


class InfeasibleInstance(Exception):
    """The instance admits no b-bibranching (exit 3); carries a witness."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


class GuardError(Exception):
    """A desk-scale size guard was exceeded (exit 4)."""


class TheoremViolation(Exception):
    """A certified construction contradicted a proven statement (exit 5).

    This is a defect signal and must surface, never be patched over.
    """

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload
