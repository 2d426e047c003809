"""Let the subprocesses some tests start (the CLI in criterion 8) import the
package from a checkout, as pytest's own `pythonpath` setting does in-process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
