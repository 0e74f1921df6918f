"""The one entry point: ``python3 -m benchmarks.e2e`` from the repository
root (what BENCHMARK.json names).  Puts ``src/`` on the path itself —
the benchmark builds nothing and installs nothing — and hands over to
:mod:`benchmarks.e2e.cli`."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.stderr.write(f"benchmarks/e2e: no program to measure under {ROOT / 'src'}\n")
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

from .cli import main  # noqa: E402  (after the path is set)

sys.exit(main())
