"""The numeric-failure exception of the exact layer."""

from __future__ import annotations

__all__ = ["QuadratureError"]


class QuadratureError(RuntimeError):
    """Raised when an exact value cannot be certified.

    The gamma-shape ladder (:mod:`.exact_dist`) raises it for a non-finite
    Bessel or ladder value, or for a reverse sum that did not converge
    within its cap; ``verify``'s tau-integral rule raises it when its two
    orders disagree.  ``partial`` carries the best partial value (log
    scale, NaN when non-finite) and ``rel_err`` its relative error bound
    (inf when non-finite), so callers can report a degraded value instead
    of nothing.
    """

    def __init__(
        self,
        message: str,
        partial: float | None = None,
        rel_err: float | None = None,
    ) -> None:
        super().__init__(message)
        self.partial = partial
        self.rel_err = rel_err
