"""Exception taxonomy shared across the pipeline.

Frontend errors carry a source location so the CLI can print
``path:line:col``-style diagnostics.
"""

from __future__ import annotations


class SourceLocation:
    """A path, line and column, compared, hashed and printed by those three."""

    __slots__ = ("path", "line", "col")

    def __init__(self, path: str, line: int, col: int):
        self.path, self.line, self.col = path, line, col

    def __eq__(self, other):
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return (self.path, self.line, self.col) == (other.path, other.line, other.col)

    def __hash__(self) -> int:
        return hash((self.path, self.line, self.col))

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def __repr__(self) -> str:
        return f"SourceLocation(path={self.path!r}, line={self.line!r}, col={self.col!r})"


class TokenLocation(SourceLocation):
    """The location of token ``index`` of ``tokens`` (a lexer.Lines), found
    from the token's offset when path, line or col is first read."""

    __slots__ = ("tokens", "index")

    def __init__(self, tokens, index: int):
        self.tokens, self.index = tokens, index

    def __getattr__(self, name: str):  # called only while a field is unset
        if name not in SourceLocation.__slots__:
            raise AttributeError(name)
        loc = self.tokens.location(self.tokens.token_offset(self.index))
        self.path, self.line, self.col = loc.path, loc.line, loc.col
        return getattr(self, name)


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
