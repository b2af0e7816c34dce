"""The benchmark tracer's contract with the package.

``bench/tracing.py`` patches functions of ``anchorlap`` by module and name,
binds some of their arguments by parameter name and reads attributes of
the values they take and return.  One in-process pass of ``match --hc 5``,
``optimize``, ``stats --jitter`` and ``emo --mc --workers 2`` on the
``tests/data`` inputs, run under the tracer, fails here when a rename in
``src/`` breaks it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from anchorlap import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
FACES = str(DATA / "golden_faces.txt")
SPEC = str(DATA / "golden_spec.json")

OPS = {
    "match": ["match", "--annotations", FACES, "--spec", SPEC, "--hc", "5"],
    "optimize": ["optimize", "--annotations", FACES, "--space", str(DATA / "golden_space.json")],
    "jitter": ["stats", "--annotations", FACES, "--spec", SPEC, "--jitter", "--trials", "4",
               "--seed", "3"],
    "emo_mc": ["emo", "--mc", "--scales", "16,32", "--strides", "16", "--samples", "20000",
               "--workers", "2", "--seed", "5"],
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_namespaces():
    """A copy of every loaded ``anchorlap`` module's namespace."""
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "anchorlap" or name.startswith("anchorlap.")}


def test_traced_pass_runs_counts_and_uninstalls(tmp_path):
    tracing = load_tracing()
    for mod, *_ in tracing.TARGETS:
        importlib.import_module(f"anchorlap.{mod}")
    before = package_namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = {}
        for name, argv in OPS.items():
            tracer.op = name
            codes[name] = cli.main([*argv, "--out", str(tmp_path / name)])
    finally:
        tracer.uninstall()
    assert codes == dict.fromkeys(OPS, 0)
    after = package_namespaces()
    for name, namespace in before.items():
        assert all(after[name][key] is value for key, value in namespace.items()), name
    metrics = tracer.metrics()
    for key in ("matching.hard_faces", "optimizer.group_kernels", "emo.mc_samples"):
        assert metrics[key] > 0, key
