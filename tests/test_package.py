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


def test_restated_numeric_names_are_gone():
    # each of these only restated another name: integral_identity_check the
    # |mean(G)| that the gate's sup|G| bounds, residual_l2 the l2 norm that
    # residual() reports, SweepRow.feasible the row's status
    import dataclasses

    from triplekit import vortex

    assert "integral_identity_check" not in triplekit.__all__
    assert not hasattr(triplekit, "integral_identity_check")
    assert not hasattr(vortex, "integral_identity_check")
    assert "residual_l2" not in {f.name for f in dataclasses.fields(vortex.VortexSolution)}
    assert "feasible" not in {f.name for f in dataclasses.fields(vortex.SweepRow)}


def test_restated_chamber_names_are_gone():
    # quasi_projective was True on every input and coprime_generic restated
    # a gcd: is_projective is the one projectivity answer
    import dataclasses

    from triplekit import chambers

    for name in ("ProjectivityFlags", "projectivity_flags"):
        assert name not in triplekit.__all__
        assert not hasattr(triplekit, name)
        assert not hasattr(chambers, name)
    fields = {f.name for f in dataclasses.fields(chambers.ChamberDecomposition)}
    assert "coprime_generic" not in fields
    assert "is_projective" in triplekit.__all__
