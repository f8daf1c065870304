"""Exception types shared across the package."""


class GrasslvqError(Exception):
    """Base class for all errors raised by this package."""


# --- numerical / model errors ---

class RankDeficient(GrasslvqError):
    """Input matrix has numerical rank below the requested dimension."""


class SingularFactor(GrasslvqError):
    """A singular value is too small to invert."""


class DegenerateSample(GrasslvqError):
    """Sample coincides with prototypes of both polarities (d+ + d- ~ 0)."""


class MissingClassPrototype(GrasslvqError):
    """No prototype available with (or without) the sample's label."""


class AllZeroRelevance(GrasslvqError):
    """Every relevance component clipped to zero; learning rate far too large."""


class ConfigError(GrasslvqError):
    """Invalid or inconsistent configuration."""


# --- I/O errors ---

class BadMagic(GrasslvqError):
    """IDX file magic number does not match the expected value."""


class TruncatedFile(GrasslvqError):
    """File ends before the declared payload."""


class CountMismatch(GrasslvqError):
    """Image and label files declare different item counts."""


class InconsistentDims(GrasslvqError):
    """Pixel dimensions disagree: between the frames of one image set, between
    image sets, or between the data and the model's ambient dimension D."""


class EmptySet(GrasslvqError):
    """An image-set directory contains no frames."""


class UnsupportedFormat(GrasslvqError):
    """File is not in a supported format (only binary 8-bit PGM P5)."""


class InsufficientImages(GrasslvqError):
    """A class has fewer images than one subspace draw requires."""


class VersionMismatch(GrasslvqError):
    """Model file was written by an unknown format version."""


class CorruptModel(GrasslvqError):
    """Model file is truncated or fails its checksum."""


class ModelNotFound(GrasslvqError):
    """Model file does not exist."""
