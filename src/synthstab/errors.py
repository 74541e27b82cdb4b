"""Exception types shared across the package: one class per exit code.

Each class carries the exit code the CLI returns for it and the prefix
of the message it prints on stderr, so ``cli.run`` handles every
package failure with one ``except`` clause.
"""


class SynthStabError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2
    prefix = "error"


class InvalidSpecError(SynthStabError):
    """An option, setting or argument violates its constraints."""


class NonFiniteLossError(SynthStabError):
    """Training loss became NaN or infinite."""

    exit_code = 3
    prefix = "training error"

    def __init__(self, network: str, epoch: int, batch_index: int):
        self.network = network
        self.epoch = epoch
        self.batch_index = batch_index
        super().__init__(
            f"non-finite loss in {network} at epoch {epoch}, batch {batch_index}"
        )


class IoFailureError(SynthStabError):
    """File could not be read, parsed, or written."""

    exit_code = 4
    prefix = "io error"


class MeasurementError(SynthStabError):
    """Frames or correspondences do not support a measurement."""

    exit_code = 5
    prefix = "evaluation error"
