"""Exception types shared across the package."""


class FormatError(ValueError):
    """Base class for binary/text file format violations."""


class BadMagicError(FormatError):
    pass


class FormatVersionError(FormatError):
    pass


class TruncatedFileError(FormatError):
    pass


class InconsistentFileError(FormatError):
    """A file that contradicts its own header: bytes after the last array the
    header describes, or stored extents that its dims and cell size do not give."""


class EmptyBatchError(ValueError):
    """A query batch ended up with no usable samples."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during optimization.

    Carries the step index at which divergence was detected.
    """

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"training diverged at step {step}")


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""
