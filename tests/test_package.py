import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tofir


def test_readme_api_sketch_runs():
    """The README's Python blocks run as written, so a public name deleted
    or renamed cannot leave them stale."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})


def test_every_public_name_resolves():
    assert len(set(tofir.__all__)) == len(tofir.__all__)
    for name in tofir.__all__:
        assert getattr(tofir, name) is not None, name


@pytest.mark.parametrize("module", ["tofir", "tofir.cli"])
def test_import_loads_no_scipy(module):
    """scipy is a test dependency only: a fresh interpreter importing the
    package or its command line has no scipy module loaded."""
    # the subprocess imports the package from where this process found it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(tofir.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH")])
    )
    probe = (f"import sys, {module}; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
