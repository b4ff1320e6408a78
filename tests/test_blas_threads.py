"""``import idtlab`` loads numpy's OpenBLAS with one thread unless the user set a count.

Each case imports idtlab in a fresh interpreter, since OpenBLAS reads its
thread count only while numpy loads it.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in json.dumps(blas).lower()


pytestmark = [
    pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"),
    pytest.mark.skipif(not _openblas(), reason="numpy is not built with OpenBLAS"),
]

_PROBE = (
    "import json, os, idtlab\n"
    "threads = [int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('Threads:')][0]\n"
    f"print(json.dumps([threads, {{k: os.environ.get(k) for k in {_THREAD_VARIABLES!r}}}]))\n"
)


def _import_idtlab(**variables):
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    env.update(variables)
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_import_leaves_one_thread_and_an_unchanged_environment():
    threads, seen = _import_idtlab()
    assert threads == 1
    assert seen == dict.fromkeys(_THREAD_VARIABLES)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS caps its threads at the CPU count")
def test_an_explicit_openblas_thread_count_is_kept():
    threads, seen = _import_idtlab(OPENBLAS_NUM_THREADS="2")
    assert threads == 2
    assert seen["OPENBLAS_NUM_THREADS"] == "2"


def test_omp_thread_count_adds_no_openblas_variable():
    threads, seen = _import_idtlab(OMP_NUM_THREADS="1")
    assert threads == 1
    assert seen == {"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": "1"}
