"""Exception types shared across the package."""


class SynthStabError(Exception):
    """Base class for all package-specific errors."""


class DegenerateConfigurationError(SynthStabError):
    """Point configuration does not determine a similarity."""


class InvalidSpecError(SynthStabError):
    """Scene or noise specification violates its constraints."""


class IoFailureError(SynthStabError):
    """File could not be read, parsed, or written."""


class InsufficientMarksError(SynthStabError):
    """A frame pair shares fewer than two tracked points."""

    def __init__(self, pair_index: int, n_shared: int):
        self.pair_index = pair_index
        self.n_shared = n_shared
        super().__init__(
            f"pair {pair_index} shares only {n_shared} tracked point(s); need >= 2"
        )


class FrameMismatchError(SynthStabError):
    """Frames have incompatible shapes or dtypes."""


class DegenerateFlowError(SynthStabError):
    """Too few trackable flow cells to fit a motion model."""


class NonFiniteLossError(SynthStabError):
    """Training loss became NaN or infinite."""

    def __init__(self, network: str, epoch: int, batch_index: int):
        self.network = network
        self.epoch = epoch
        self.batch_index = batch_index
        super().__init__(
            f"non-finite loss in {network} at epoch {epoch}, batch {batch_index}"
        )


class NonFiniteEstimateError(SynthStabError):
    """A backend produced a NaN or infinite motion estimate."""


class ShapeMismatchError(SynthStabError):
    """Tensor shape does not match the expected model geometry."""


class SignalTooShortError(SynthStabError):
    """Signal has too few samples for the requested operation."""


class BadWindowError(SynthStabError):
    """Smoothing window is even, too small, or exceeds the signal."""


class SingularTransformError(SynthStabError):
    """Transform cannot be inverted for warping."""


class LengthMismatchError(SynthStabError):
    """Parallel sequences disagree in length."""


class DegenerateError(SynthStabError):
    """Correspondences do not determine a homography."""


class SeriesTooShortError(SynthStabError):
    """Motion series is too short for spectral scoring."""


class AllFramesFailedError(SynthStabError):
    """No frame produced a usable measurement."""
