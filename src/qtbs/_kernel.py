"""Kernel selection: compiled solver when available, pure Python otherwise.

Set QTBS_PURE=1 to force the pure-Python kernel, e.g. to compare the two
kernels on one benchmark workload. ``solve`` takes the pure kernel's keyword-only modes on
either kernel: the compiled one has no rates-only loop, so a rates-only or
early-exit call runs its full solve and returns the ``rate`` list, which
is bit for bit the pure kernel's.
"""
import os

from . import _kernel_py

if os.environ.get("QTBS_PURE"):
    _impl = _kernel_py
else:
    try:
        from . import _solve_kernel as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernel_py


def _with_modes(full_solve):
    """``full_solve`` taking the pure kernel's keyword-only modes."""
    def solve(caps, flow_links, link_flows, eps, *, rates_only=False, until=None):
        out = full_solve(caps, flow_links, link_flows, eps)
        return out[0] if rates_only or until is not None else out
    return solve


solve = _kernel_py.solve if _impl is _kernel_py else _with_modes(_impl.solve)

IMPLEMENTATION = _impl.IMPL_NAME
