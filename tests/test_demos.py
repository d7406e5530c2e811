import os
import subprocess
import sys
from pathlib import Path

import pytest

import multiform

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", ["ingest_image.py", "round_trip.py",
                                  "schema_to_ddl.py"])
def test_demo_runs(demo, tmp_path):
    # the absolute package directory, so the child finds the package these
    # tests imported whatever its working directory
    package_root = str(Path(multiform.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
