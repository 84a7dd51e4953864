"""Exception types shared across the toolkit, and the text-file reader
that turns a decoding error into one of them."""

from __future__ import annotations

import contextlib
import math

__all__ = [
    "SeldetError", "IndexOutOfRangeError", "AsymmetricInputError",
    "ParseError", "UnsupportedFormatError", "SizeMismatchError",
    "NotAPermutationError", "PatternMismatchError", "NonPositivePivotError",
    "NearSingularWarning", "SingularMatrixError", "TooLargeError",
    "TooLargeForDenseFormError", "RankDeficientDesignError",
    "EmptyFactorError", "PatternNotCoveredError", "InvalidParameterError",
    "NonFiniteValueError", "InvalidConfigError",
]


class SeldetError(Exception):
    """Base class for all errors raised by this package."""


class IndexOutOfRangeError(SeldetError, IndexError):
    """An index is not a whole number or falls outside its range: a row
    or column outside the matrix dimension, or a level code."""


class AsymmetricInputError(SeldetError, ValueError):
    """Explicit (i, j) and (j, i) entries disagree beyond tolerance."""


class ParseError(SeldetError, ValueError):
    """An input is malformed: a Matrix Market stream, a dataset, a
    permutation file, or a file that is not UTF-8 text."""


class UnsupportedFormatError(SeldetError, ValueError):
    """A Matrix Market stream is well-formed but not symmetric real/pattern."""


class SizeMismatchError(SeldetError, ValueError):
    """Operands have incompatible dimensions."""


class NotAPermutationError(SeldetError, ValueError):
    """An index sequence is not a bijection on 0..n-1."""


class PatternMismatchError(SeldetError, ValueError):
    """Numeric input does not match the symbolic pattern it claims to follow."""


class NonPositivePivotError(SeldetError, ArithmeticError):
    """A pivot d_i fell below the rejection threshold (matrix not SPD) or
    is not finite (the matrix holds NaN or inf)."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        kind = "non-positive" if math.isfinite(value) else "non-finite"
        super().__init__(f"{kind} pivot d[{index}] = {value!r}")


class NearSingularWarning(UserWarning):
    """A pivot is positive but below the near-singular threshold."""


class SingularMatrixError(SeldetError, ArithmeticError):
    """Dense elimination hit an exactly singular matrix."""


class TooLargeError(SeldetError, ValueError):
    """Input exceeds the size guard of a dense oracle path."""


class TooLargeForDenseFormError(TooLargeError):
    """The dense H-form likelihood was requested for an oversized problem."""


class RankDeficientDesignError(SeldetError, ValueError):
    """The fixed-effect design matrix does not have full column rank."""


class EmptyFactorError(SeldetError, ValueError):
    """A grouping factor has no levels or an empty level."""


class PatternNotCoveredError(SeldetError, ValueError):
    """A matrix has a structural entry outside the selected-inverse pattern."""


class InvalidParameterError(SeldetError, ValueError):
    """A parameter value is outside its domain: a variance parameter that
    is not a finite positive number, a malformed numeric flag, an unknown
    ordering name, a label shared by two levels, or a name or label that
    a dataset file cannot carry."""


class NonFiniteValueError(SeldetError, ValueError):
    """An input value is NaN or infinite."""


class InvalidConfigError(SeldetError, ValueError):
    """A benchmark-generator setting violates its constraints."""


@contextlib.contextmanager
def _open_text(path: str, role: str):
    """Open ``path`` as UTF-8 text for reading; a decoding error while the
    block reads it becomes a ParseError that names the file and its role
    (``"matrix"``, ``"dataset"``, ``"ordering"``)."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{role} file {path}: not utf-8 text "
                             f"({exc.reason} at byte {exc.start})") from exc
