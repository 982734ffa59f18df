import os
from pathlib import Path

import linksim


def cli_env() -> dict[str, str]:
    """Environment for a ``python -m linksim`` subprocess.

    The package root is put on PYTHONPATH as an absolute path, so the
    subprocess imports this checkout whatever its working directory, and a
    ``RuntimeWarning`` is an error there as it is in the suite.
    """
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    root = str(Path(linksim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env
