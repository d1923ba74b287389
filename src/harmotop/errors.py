"""The error type shared across the package."""


class TailNotCertifiedError(RuntimeError):
    """A routine could not certify its result; the CLI exits 3 on it.

    Raised instead of silently truncating: the caller either supplied a
    cutoff below which the remainder cannot be bounded, or the quantity is
    genuinely not summable/finite (e.g. counting below the boundary value
    of a symbol that does not vanish on the boundary).  A count, fit
    coefficient or model value that leaves the double range raises it too,
    rather than printing inf or nan.
    """
