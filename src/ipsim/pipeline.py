"""Source-to-graph convenience layer.

Runs preprocess, parse, elaborate, and graph construction in order and
rewraps failures as PipelineError tagged with the failing stage, while
keeping the original exception on .cause for callers that dispatch on
it (corpus scans skip UnsupportedConstruct, for example). A design that
nests deeper than a stage's recursive walkers can follow raises
RecursionError there; it is rewrapped the same way, with DesignTooDeep
as the cause.
"""

from __future__ import annotations

import sys
from pathlib import Path

from ipsim.dfg import Graph, build_dfg
from ipsim.errors import DesignTooDeep, IpsimError, PipelineError
from ipsim.frontend import SourceUnit, flatten_hierarchy, parse_unit, preprocess
from ipsim.frontend.flatten import FlatModule
from ipsim.frontend.preprocess import read_source


def _stage(stage: str, design: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except IpsimError as exc:
        raise PipelineError(stage, design, exc) from exc
    except RecursionError as exc:
        # Without its traceback, which holds every frame of the recursion,
        # the failed stage is freed as soon as the error is.
        raise PipelineError(stage, design, DesignTooDeep(sys.getrecursionlimit())) from exc.with_traceback(None)


def unit_from_paths(paths: list[str | Path], top: str | None = None,
                    defines: dict[str, str] | None = None) -> SourceUnit:
    files = [(str(Path(path)), read_source(path)) for path in paths]
    root = str(Path(paths[0]).parent) if paths else None
    return SourceUnit(files=files, top_module=top or "", defines=dict(defines or {}), root=root)


def elaborate(unit: SourceUnit, design: str | None = None) -> FlatModule:
    design = design or (unit.files[0][0] if unit.files else "<unit>")
    processed = _stage("preprocess", design, preprocess, unit)
    ast = _stage("parse", design, parse_unit, processed)
    top = unit.top_module or None
    return _stage("elaborate", design, flatten_hierarchy, ast, top)


def compile_design(paths: list[str | Path], top: str | None = None,
                   defines: dict[str, str] | None = None, trimmed: bool = True) -> Graph:
    """File paths in, trimmed data-flow graph out."""
    design = str(paths[0]) if paths else "<unit>"
    flat = elaborate(unit_from_paths(paths, top, defines), design)
    return _stage("dfg", design, build_dfg, flat, trimmed)


def compile_text(text: str, path: str = "<text>", top: str | None = None,
                 defines: dict[str, str] | None = None, trimmed: bool = True) -> Graph:
    """Single-buffer variant of compile_design, mostly for tests."""
    unit = SourceUnit(files=[(path, text)], top_module=top or "",
                      defines=dict(defines or {}), root=None)
    flat = elaborate(unit, path)
    return _stage("dfg", path, build_dfg, flat, trimmed)
