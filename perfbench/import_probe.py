"""Import probe, run as a fresh process with ``src`` on ``PYTHONPATH``.

``import_probe.py discover`` imports ``mqisim.cli`` and prints, as JSON,
the public scipy modules that import loaded, where ``mqisim`` was found,
and the versions and BLAS build of the numerical stack.

``import_probe.py time '<json>'`` imports ``numpy``, then those scipy
modules, then ``mqisim.cli``, in that order and in one fresh process, and
prints the wall time of each step.  Each step is charged with what it
adds to the steps before it, so numpy submodules that only scipy pulls in
count as scipy's, and an empty scipy list times as zero.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import warnings


def _public_scipy() -> list[str]:
    return sorted(
        name for name in sys.modules
        if name.split(".")[0] == "scipy"
        and not any(part.startswith("_") for part in name.split("."))
    )


def _blas(config: dict) -> dict:
    deps = config.get("Build Dependencies", {})
    return {key: {k: deps[key].get(k) for k in ("name", "version", "openblas configuration")
                  if k in deps[key]}
            for key in ("blas", "lapack") if key in deps}


def discover() -> dict:
    import mqisim.cli

    scipy_mods = _public_scipy()
    import numpy
    import scipy

    return {
        "scipy_modules": scipy_mods,
        "mqisim_file": mqisim.cli.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
    }


def time_imports(scipy_mods: list[str]) -> dict:
    out = {}
    for stage, mods in (("numpy", ["numpy"]), ("scipy", scipy_mods),
                        ("mqisim", ["mqisim.cli"])):
        t0 = time.perf_counter()
        for name in mods:
            importlib.import_module(name)
        out[stage] = time.perf_counter() - t0
    return out


if __name__ == "__main__":
    warnings.simplefilter("ignore")
    if sys.argv[1] == "discover":
        result = discover()
    else:
        result = time_imports(json.loads(sys.argv[2]))
    print(json.dumps(result))
