"""Exception taxonomy shared across the pipeline.

Frontend errors carry a source location so the CLI can print
``path:line:col``-style diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceLocation:
    path: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class IpsimError(Exception):
    """Base class for all errors raised by this package."""


class FrontendError(IpsimError):
    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location
        prefix = f"{location}: " if location is not None else ""
        super().__init__(prefix + message)


class PreprocessError(FrontendError):
    pass


class VerilogSyntaxError(FrontendError):
    def __init__(self, location: SourceLocation, expected: tuple[str, ...], got: str):
        self.expected = expected
        self.got = got
        want = " or ".join(expected)
        super().__init__(f"expected {want}, got {got!r}", location)


class UnsupportedConstruct(FrontendError):
    """Outside the supported synthesizable subset; distinct from a syntax
    error so corpus scans can skip the file instead of failing."""

    def __init__(self, location: SourceLocation, construct: str):
        self.construct = construct
        super().__init__(f"unsupported: {construct}", location)


class ElaborationError(FrontendError):
    pass


class UnknownModule(ElaborationError):
    def __init__(self, name: str, location: SourceLocation | None = None):
        self.name = name
        super().__init__(f"unknown module {name!r}", location)


class RecursiveInstantiation(ElaborationError):
    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__("recursive instantiation: " + " -> ".join(cycle))


class PortArityMismatch(ElaborationError):
    def __init__(self, instance: str, expected: int, got: int):
        self.instance = instance
        self.expected = expected
        self.got = got
        super().__init__(f"instance {instance!r}: expected {expected} connections, got {got}")


class UnresolvedIdentifier(ElaborationError):
    def __init__(self, name: str, location: SourceLocation | None = None):
        self.name = name
        super().__init__(f"identifier {name!r} does not resolve to a declaration or port", location)


class ConfigError(IpsimError, ValueError):
    """A setting outside its valid range (model, training or threshold)."""


class DfgError(IpsimError):
    pass


class MultipleContinuousDrivers(DfgError):
    def __init__(self, signal: str):
        self.signal = signal
        super().__init__(f"signal {signal!r} has multiple full drivers")


class UndrivenSignal(DfgError):
    def __init__(self, signal: str):
        self.signal = signal
        super().__init__(f"signal {signal!r} has no driver and is not an input")


class DfgFormatError(DfgError):
    """Malformed DFG document or unknown node kind string."""


class EmptyGraph(IpsimError):
    pass


class ZeroEmbedding(IpsimError):
    """An embedding has zero norm or holds NaN or inf, so no cosine score
    exists; the model is untrained or degenerate."""


class ShapeMismatch(IpsimError, ValueError):
    """Arrays whose shapes do not fit together."""


class TrainingError(IpsimError):
    pass


class NonFiniteLoss(TrainingError):
    pass


class MissingGraph(TrainingError):
    def __init__(self, ref: str):
        self.ref = ref
        super().__init__(f"no cached graph tensors for design {ref!r}")


class CheckpointError(IpsimError):
    pass


class VocabularyMismatch(CheckpointError):
    def __init__(self, expected: str, got: str):
        super().__init__(f"checkpoint vocabulary version {got!r} does not match current {expected!r}")


class CorpusError(IpsimError):
    pass


class DesignTooDeep(IpsimError):
    """A design nests deeper than the compiler's recursive walkers can
    follow within the interpreter's recursion limit."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"design nests too deep to compile (recursion limit {limit})")


class PipelineError(IpsimError):
    """Wraps an upstream failure with the stage and design that caused it."""

    def __init__(self, stage: str, design: str, cause: Exception):
        self.stage = stage
        self.design = design
        self.cause = cause
        super().__init__(f"{design}: {stage}: {cause}")
