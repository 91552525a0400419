"""The package's four exception classes, and where each is caught.

AqmdsError          bad input or a failed precondition; `cli.main` exits 2
NotPrimePower       q is not a prime power; `catalog.exists` answers no
CapExceeded         an enumeration or the MDS k-subset test would pass its cap;
                    `code._distributions` returns it, logged skipped(cap), and
                    `catalog.exists` answers yes uncertified; elsewhere exit 2
VerificationFailed  a built code or a certificate fails a check; exit 3
"""


class AqmdsError(Exception):
    """Base class for every error raised by this package."""


class NotPrimePower(AqmdsError):
    pass


class CapExceeded(AqmdsError):
    """An enumeration or construction exceeded its configured size cap."""


class VerificationFailed(AqmdsError):
    pass
