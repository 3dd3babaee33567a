"""One fresh process's set-up, for timing by ``run.py``.

``python3 perfbench/setup_probe.py`` does what a run does
before its first timed unit (:func:`phases.prepare`), prints ``ready``
and shuts the service down again.  The parent times process start to
``ready``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from phases import prepare  # noqa: E402

environment = prepare()
print("ready", flush=True)
environment.close()
