import os
import subprocess
import sys

import triplekit


def test_export_list_resolves():
    # every name of __all__ resolves, the numeric ones through the lazy
    # module __getattr__, and a star import binds them all; a name left in
    # __all__ after its definition is gone fails here
    code = (
        "import sys, triplekit\n"
        "assert 'triplekit.vortex' not in sys.modules\n"
        "names = triplekit.__all__\n"
        "assert len(set(names)) == len(names)\n"
        "missing = [n for n in names if not hasattr(triplekit, n)]\n"
        "assert not missing, missing\n"
        "assert 'triplekit.vortex' in sys.modules\n"
        "ns = {}\n"
        "exec('from triplekit import *', ns)\n"
        "assert set(names) <= set(ns), set(names) - set(ns)\n"
        "assert not hasattr(triplekit, 'no_such_name')\n"
    )
    src = os.path.dirname(os.path.dirname(triplekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
