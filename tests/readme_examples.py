"""Run the README's Python examples in order, in one namespace.

Usage::

    python tests/readme_examples.py [README.md]

It needs mixsep and NumPy alone, so a plain ``pip install .`` runs it: an
example that fails, or an ``assert`` in one that does not hold, raises.
"""

import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(path: Path = README) -> list[str]:
    """The bodies of the ```` ```python ```` blocks of ``path``, in order."""
    return re.findall(r"^```python\n(.*?)^```", path.read_text(), re.S | re.M)


def run(path: Path = README) -> dict:
    """Execute every Python block of ``path`` in one namespace; returns it."""
    namespace = {"__name__": "readme"}
    for block in python_blocks(path):
        exec(compile(block, str(path), "exec"), namespace)
    return namespace


if __name__ == "__main__":
    run(Path(sys.argv[1]) if len(sys.argv) > 1 else README)
