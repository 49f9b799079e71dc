"""Exception hierarchy shared across the toolkit.

Every error raised on purpose derives from CIDetectError so CLI entry points
can map validation failures and numeric failures to distinct exit codes.
"""

from __future__ import annotations


class CIDetectError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CIDetectError):
    """Bad inputs, violated preconditions, unusable configuration."""


class NumericError(CIDetectError):
    """Numeric breakdown at runtime (non-finite values, divergence)."""


class MalformedGraph(ValidationError):
    """Control-flow graph violates a structural invariant."""


class GraphTooLarge(ValidationError):
    """Graph exceeds the configured node cap for embedding."""


class EmptyCorpus(ValidationError):
    """Vocabulary construction saw no opcodes at all."""


class InconsistentTables(ValidationError):
    """Mapping tables contradict each other beyond per-record recovery."""


class Exhausted(ValidationError):
    """Pair generation cannot satisfy the request from the given index."""


class TooFewProjects(ValidationError):
    """Project split requested from fewer projects than splits."""


class ShapeMismatch(ValidationError):
    """Tensor arguments disagree with the model configuration."""


class InvalidLabel(ValidationError):
    """Pair label outside {-1, +1}."""


class NegativeDistance(ValidationError):
    """Similarity requested for a negative distance."""


class DegenerateLabels(ValidationError):
    """A metric needs both labels but got only one."""


class SiteNotFound(ValidationError):
    """Requested call site does not exist or does not call the callee."""


class PatternStarvation(ValidationError):
    """Generator config permits all patterns but some never occurred."""


class GraphFileChanged(ValidationError):
    """A graph file's bytes differ from the sha256 its corpus manifest
    records, so its records, and the function names and opcode counts
    recorded beside it, may be stale."""


class CorruptArtifact(ValidationError):
    """A checkpoint or bundle manifest is truncated, padded or lacks a field."""


class NonFiniteGradient(NumericError):
    """A gradient became NaN or infinite; the step was aborted."""


class Diverged(NumericError):
    """Training produced a non-finite loss."""
