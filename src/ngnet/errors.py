"""Exception types shared across the package."""


class NgnetError(Exception):
    """Base class for all package errors."""


class ShapeError(NgnetError):
    """Operand shapes are inconsistent with the operation's contract."""


class ConfigError(NgnetError):
    """An experiment or architecture configuration is invalid."""


class ContractError(NgnetError):
    """A caller violated an API contract (stale cache, non-trainable update, ...)."""


class DivergenceError(NgnetError):
    """Non-finite values appeared in gradients; parameters were left untouched."""


class FormatError(NgnetError):
    """A binary or text input file does not match its declared format."""
