"""C -> CUDA translation (paper §2.4).

The device compiler compiles the CUDA translation of each host program:
``compute`` becomes a ``__global__`` kernel and ``main`` launches it on a
single thread.  The parser reads a launch back as the plain call, so
:func:`translate_to_cuda` is an AST rewrite that only sets ``compute``'s
qualifier; the kernel body is untouched.  The text form, :func:`cuda_source`
(:func:`repro.frontend.printer.print_cuda`), is for display;
``tests/toolchains/test_cuda_translation.py`` checks that parsing it back
gives exactly the unit :func:`translate_to_cuda` returns.
"""

from __future__ import annotations

import dataclasses

from repro.frontend import ast
from repro.frontend.printer import print_cuda

__all__ = ["translate_to_cuda", "cuda_source"]


def cuda_source(unit: ast.TranslationUnit) -> str:
    """Render the CUDA version of a host translation unit."""
    return print_cuda(unit)


def translate_to_cuda(unit: ast.TranslationUnit) -> ast.TranslationUnit:
    """Return ``unit`` with ``compute`` marked ``__global__``.

    This is the unit the parser builds from :func:`cuda_source`.
    """
    return dataclasses.replace(unit, functions=tuple(
        dataclasses.replace(fn, qualifier="__global__") if fn.name == "compute" else fn
        for fn in unit.functions
    ))
