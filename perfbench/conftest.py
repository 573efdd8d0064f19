"""Make the program's sources importable for ``pytest perfbench``."""

import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src"
if str(SOURCES) not in sys.path:
    sys.path.insert(0, str(SOURCES))
