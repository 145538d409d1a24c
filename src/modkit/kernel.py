"""The arithmetic kernel: :mod:`modkit._kernel`, in pure Python.

``impl`` names the module and ``BACKEND`` its name; matrices do their
arithmetic on numpy coefficient slices (:mod:`modkit.matrix`).
"""

from __future__ import annotations

from . import _kernel as impl

BACKEND: str = impl.BACKEND
