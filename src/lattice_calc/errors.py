"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid user-supplied data: bad descriptors, weights, or vectors."""


class DimensionMismatchError(InputError):
    """Shapes of the supplied arrays are inconsistent."""


class ScaleGuardError(InputError):
    """A brute-force search or a random operator would exceed its
    desk-scale guard."""


class DescriptorError(InputError):
    """A declarative descriptor (JSON config, gauge expression) failed to parse."""
