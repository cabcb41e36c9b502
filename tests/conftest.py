import os
from pathlib import Path

from hypothesis import HealthCheck, settings

settings.register_profile(
    "crystalcheck",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("crystalcheck")

# The CLI tests run `python -m crystalcheck` in subprocesses; let those
# import the package from this checkout too, with no install needed.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
