"""The cached runs pin decisions, not parameter bits, under any BLAS kernel.

A DYNAMIC_ARCH OpenBLAS picks its kernel for the CPU at load time, and
``OPENBLAS_CORETYPE`` overrides the pick for one process. Kernels differ in
the last bits of a matmul, so a run's weights and TD losses differ between
them; the CSVs the cache holds (decisions and discrete outcomes) must not.
This runs one golden prefix under the default kernel and under another, in
two subprocesses, and requires the same CSV bytes from both, each equal to
the cache. A float derived from the weights written to a CSV would fail it.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acl_dqn

PACKAGE_ROOT = Path(acl_dqn.__file__).resolve().parent.parent
CACHE = Path(__file__).resolve().parent.parent / "results" / "acceptance"

# Run in each subprocess: the kernel OpenBLAS loaded, and the prefix's logs.
CHILD = """
import ctypes, json, sys, tempfile
import numpy
from acl_dqn import orchestrator as o

def corename():
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return None

agent, seed, epochs, cache = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
config = o.TrainConfig(agent_kind=agent, **{**o.ACCEPTANCE_PROFILE, "num_epochs": epochs,
                                            "eval_every": epochs})
run = o.run_training(config, seed, *o.default_environment(o.ACCEPTANCE_ENV_SEED))
with tempfile.TemporaryDirectory() as tmp:
    logs = {kind: path.read_bytes().decode()
            for kind, path in o.write_run_logs(run.metrics, tmp, f"_{run.tag}").items()}
json.dump({"corename": corename(), "difference": o.cache_difference(run, cache),
           "logs": logs}, sys.stdout)
"""


def _blas_configuration() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '')} {blas.get('openblas configuration', '')}"


def _run_prefix(coretype: str | None) -> dict:
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT),
                                                      env.get("PYTHONPATH")]))
    # acl-c seed 5 changes phase at epoch 28, so the prefix has a phase move.
    done = subprocess.run([sys.executable, "-c", CHILD, "acl-c", "5", "30", str(CACHE)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cached_csvs_do_not_depend_on_the_blas_kernel():
    blas = _blas_configuration()
    if "openblas" not in blas.lower() or "DYNAMIC_ARCH" not in blas:
        pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS ({blas.strip() or 'unknown'}),"
                    " so OPENBLAS_CORETYPE cannot pick another kernel")
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"the kernels this test picks are x86 ones; this is {platform.machine()}")
    default = _run_prefix(None)
    if default["corename"] is None:
        pytest.skip("the loaded OpenBLAS does not report its kernel (no /proc/self/maps"
                    " or no get_corename symbol)")
    other = _run_prefix("Prescott" if default["corename"] == "Sandybridge" else "Sandybridge")
    assert other["corename"] != default["corename"]
    assert other["logs"] == default["logs"]
    assert default["difference"] is None
    assert other["difference"] is None
