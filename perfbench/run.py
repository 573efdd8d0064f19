"""Entry point: ``python3 perfbench/run.py --workload <name> [...]``.

Puts the checkout's ``src/`` and root on ``sys.path`` and runs
:func:`perfbench.bench.main`.  Without the program's sources next to it
the benchmark exits with status 2 and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"

if __name__ == "__main__":
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SOURCES}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SOURCES), str(ROOT)]
    from perfbench.bench import main

    sys.exit(main())
