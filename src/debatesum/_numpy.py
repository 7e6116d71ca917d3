"""numpy, imported on first use.

Modules take ``np`` from here instead of ``import numpy as np``: numpy is
imported the first time an attribute of ``np`` is read, so a command whose
stage does no numeric work (annotate, term clustering, labeling, alignment,
charts, selection without embeddings) starts without loading it.
"""

from __future__ import annotations


class _Numpy:
    def __getattr__(self, name: str):
        import numpy

        # runs only on a name's first read: later reads find it on the instance
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
