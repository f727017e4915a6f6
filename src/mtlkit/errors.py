"""Exception hierarchy shared across the toolkit.

Every error raised by mtlkit derives from :class:`MtlkitError` so the CLI
can catch one base class and emit a single-line diagnostic.
"""


class MtlkitError(Exception):
    """Base class for all mtlkit errors; each pickles with its attributes."""


class ShapeMismatch(MtlkitError):
    def __init__(self, expected, got, context=""):
        self.expected = expected
        self.got = got
        self.context = context
        msg = f"expected {expected}, got {got}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)

    def __reduce__(self):
        return type(self), (self.expected, self.got, self.context)


class NonScalarRoot(MtlkitError):
    """backward() called on a tensor with more than one element."""


class BadConfig(MtlkitError):
    """Network or run configuration is inconsistent."""


class BadLabel(MtlkitError):
    """A label value is outside its documented domain."""


class MissingGradient(MtlkitError):
    """Optimizer step requested before gradients were populated."""


class NonFiniteLoss(MtlkitError):
    """A training step's loss is NaN or infinite."""


class NonFiniteFeature(MtlkitError):
    """A pooled feature vector to index or query holds a NaN or an infinity."""


class ParseError(MtlkitError):
    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")

    def __reduce__(self):
        return type(self), (self.line, self.reason)


class MissingImage(MtlkitError):
    """A manifest record references an image file that does not exist."""


class UnknownLabel(MtlkitError):
    """A record uses a label absent from the manifest header."""


class BadSpec(MtlkitError):
    """Synthetic dataset specification is invalid."""


class CropTooLarge(MtlkitError):
    """Requested crop exceeds the (jittered) image dimensions."""


class NoPositives(MtlkitError):
    """Average precision is undefined without at least one positive."""


class BadK(MtlkitError):
    """k is outside the valid range for a top-k / k-NN query."""


class MatrixMismatch(MtlkitError):
    """Two score matrices disagree in ids, kind, or shape."""


class BadClass(MtlkitError):
    """Class index out of range for the chosen head."""


class EmptyDataset(MtlkitError):
    """An operation needs at least one sample and got none."""


class CheckpointError(MtlkitError):
    """Checkpoint file is unreadable, malformed or has an unsupported version."""


class DimensionMismatch(MtlkitError):
    """Checkpoint and dataset dimensions are incompatible."""


class WorkerDied(MtlkitError):
    """A forked fold-training process ended without sending its result."""
