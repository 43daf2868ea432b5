"""Exception types shared across the package.

Kept in one place so that a command-line front end can map them onto exit
codes (usage=1, data/parse=2, numerical abort=3). The package has no such
front end yet: the map waits for the CLI of ROADMAP item 6. The argument
checks that raise ParameterError for a value of the wrong kind, or for a
count below 1, live here too, so that every module can use them.
"""

import numbers

__all__ = [
    "ContractError",
    "DataError",
    "DegenerateMaskError",
    "DimensionError",
    "LabelError",
    "NumericalAbort",
    "ParameterError",
    "SplitError",
    "require_counts",
    "require_ints",
    "require_reals",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ParameterError(ValueError):
    """A hyperparameter or argument is outside its legal range."""


class ContractError(RuntimeError):
    """A caller violated an operation's precondition."""


class DegenerateMaskError(ValueError):
    """A padding mask leaves no position to attend to."""


class LabelError(ValueError):
    """A label value is outside the closed set the task defines."""


class DataError(ValueError):
    """A corpus, embedding, or config file failed to parse."""

    def __init__(self, message, path=None, line=None):
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class SplitError(ValueError):
    """A train/test split request cannot be satisfied."""


class NumericalAbort(RuntimeError):
    """Training hit a non-finite loss; carries diagnostics."""

    def __init__(self, message, epoch=None, batch=None, loss_parts=None):
        details = []
        if epoch is not None:
            details.append(f"epoch={epoch}")
        if batch is not None:
            details.append(f"batch={batch}")
        if loss_parts:
            details.append("losses=" + ", ".join(f"{k}={v}" for k, v in loss_parts.items()))
        if details:
            message = f"{message} ({'; '.join(details)})"
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.loss_parts = dict(loss_parts or {})


def _require_numbers(kind, noun, what, values):
    bad = [
        f"{name}={value!r}"
        for name, value in values.items()
        if isinstance(value, bool) or not isinstance(value, kind)
    ]
    if bad:
        raise ParameterError(f"{what} must be {noun}, got {', '.join(bad)}")


def require_ints(what, **values):
    """Raise ParameterError naming each of `values` that is not an integer
    (a bool is not one), so that a size or seed fails here and not later
    inside numpy."""
    _require_numbers(numbers.Integral, "integers", what, values)


def require_counts(what, **values):
    """Raise ParameterError naming each of `values` that is not an integer
    (`require_ints`) or is below 1."""
    require_ints(what, **values)
    bad = [f"{name}={value!r}" for name, value in values.items() if value < 1]
    if bad:
        raise ParameterError(f"{what} must be at least 1, got {', '.join(bad)}")


def require_reals(what, **values):
    """Raise ParameterError naming each of `values` that is not a real
    number (a bool or a string is not one), so that a rate or weight fails
    here and not in a range check or inside numpy."""
    _require_numbers(numbers.Real, "real numbers", what, values)
