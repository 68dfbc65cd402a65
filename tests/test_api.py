import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import peakgain

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["cli", "estimator", "lifting", "lti", "plant", "spectral"]

# The public surface of the package. A new export has to be added here on
# purpose; everything else stays importable from its own module.
PUBLIC_NAMES = {
    "EstimateTrace",
    "EstimationError",
    "PowerIterationConfig",
    "RESET_FREE",
    "RationalTransferFunction",
    "StateSpace",
    "SystemSpecError",
    "circulant_coefficients",
    "circulant_eigenvalues",
    "diagonalization_residual",
    "freq_response",
    "hinf_peak",
    "iterate_reset_free",
    "lift",
    "max_gain_reset_based",
    "new_session",
    "parse_system_file",
    "parse_system_text",
    "periodic_response_matrix",
    "relative_batch_change",
    "reversed_spectrum",
    "select_shift",
    "tf_to_ss",
}


def test_every_export_resolves():
    for name in peakgain.__all__:
        assert getattr(peakgain, name) is not None, name


def test_exports_are_the_frozen_public_names():
    assert len(peakgain.__all__) == len(set(peakgain.__all__))
    assert set(peakgain.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 23


def in_fresh_interpreter(code):
    """Run ``code`` in a new interpreter from the repository root, src/ first
    on its path, and return what it prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


LOADED = "sorted(m for m in sys.modules if m.startswith('peakgain.'))"


def test_import_loads_no_module():
    assert in_fresh_interpreter(f"""
        import json, sys
        import peakgain
        print(json.dumps({LOADED}))
    """) == []


def test_parse_and_realize_load_only_lti():
    assert in_fresh_interpreter(f"""
        import json, sys
        import peakgain
        peakgain.tf_to_ss(peakgain.parse_system_file("demos/delayed_resonator.txt"))
        print(json.dumps({LOADED}))
    """) == ["peakgain.lti"]


def test_the_cli_loads_every_module():
    assert in_fresh_interpreter(f"""
        import json, sys
        import peakgain.cli
        print(json.dumps({LOADED}))
    """) == [f"peakgain.{name}" for name in MODULES]


def test_star_import_binds_each_name_from_its_module():
    # each public name is listed in the __all__ of exactly one module, its
    # defining one, and the star import binds that module's very object
    found = in_fresh_interpreter(f"""
        import importlib, json
        from peakgain import *
        import peakgain
        modules = [importlib.import_module(f"peakgain.{{name}}") for name in {MODULES}]
        print(json.dumps({{
            name: [(module.__name__, getattr(module, name) is globals()[name])
                   for module in modules if name in module.__all__]
            for name in peakgain.__all__
        }}))
    """)
    assert set(found) == PUBLIC_NAMES
    for name, homes in found.items():
        assert len(homes) == 1 and homes[0][1], (name, homes)


def test_modules_resolve_as_attributes():
    assert in_fresh_interpreter("""
        import json
        import peakgain
        print(json.dumps([peakgain.lifting.__name__, peakgain.cli.__name__,
                          peakgain.cli.main.__module__]))
    """) == ["peakgain.lifting", "peakgain.cli", "peakgain.cli"]


def test_an_unknown_name_raises_attribute_error():
    assert in_fresh_interpreter("""
        import json
        import peakgain
        try:
            peakgain.no_such_name
        except AttributeError as exc:
            print(json.dumps(str(exc)))
    """) == "module 'peakgain' has no attribute 'no_such_name'"


def test_dir_lists_every_public_name():
    listed = in_fresh_interpreter("""
        import json
        import peakgain
        print(json.dumps(dir(peakgain)))
    """)
    assert "__all__" in listed
    assert PUBLIC_NAMES <= set(listed)
