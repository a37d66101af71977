"""Locate the checkout this benchmark lives in and import lqrig from its sources."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_lqrig() -> None:
    """Put the checkout's `src` first on the import path and import lqrig.

    Exits with an error when the checkout holds no lqrig sources, so that the
    benchmark never measures some other installed copy.
    """
    if not (SRC / "lqrig" / "__init__.py").is_file():
        raise SystemExit(f"error: no lqrig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lqrig

    if Path(lqrig.__file__).resolve().parent != SRC / "lqrig":
        raise SystemExit(f"error: imported lqrig from {lqrig.__file__}, not from {SRC}")
