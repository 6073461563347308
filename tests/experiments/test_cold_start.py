"""Cold-start import budget of the CLI.

Every CLI call, queue-worker spawn and ``serve`` start imports
``repro.experiments.cli`` first, so whatever that import drags in is paid
on every run.  ``scipy.stats``, ``scipy.fft`` and ``networkx`` are heavy
and serve only paths a classical-method campaign case never takes (the
Gamma/special factories and the normal CDF, the fast policy's FFT
kernel, the Dodin evaluator and ``TaskGraph.as_networkx``), so they are
imported inside the functions that need them.  This test checks modules,
not timings: a fresh interpreter imports the CLI, runs an exact and a
``fast_conv`` sweep through it, and must still not have loaded any of
them.
"""

import json
import subprocess
import sys

from tests.campaign.faultlib import fault_env

#: Modules a classical-method campaign run must not load (each costs
#: ~0.1–0.8 s to import).
DEFERRED = ("scipy.stats", "scipy.fft", "networkx")

#: One quick Cholesky case with a small panel, cheap enough for tier-1.
EXPR = "graph[chol10] x ul[1.1] x n_random[4] x base_seed[7]"

SCRIPT = """
import json, pathlib, sys

from repro.experiments import cli

out = pathlib.Path(sys.argv[1])
loaded = {"import": sorted(m for m in %(deferred)r if m in sys.modules)}
for tag, expr in (("exact", %(expr)r), ("fast_conv", %(expr)r + " x fast_conv[1]")):
    code = cli.main(["campaign", "sweep", expr, "--cache-dir", str(out / tag),
                     "--json", str(out / (tag + ".json"))])
    assert code == 0, (tag, code)
    loaded[tag] = sorted(m for m in %(deferred)r if m in sys.modules)
print(json.dumps(loaded))
"""


def test_cli_runs_never_import_the_deferred_modules(tmp_path):
    script = SCRIPT % {"deferred": DEFERRED, "expr": EXPR}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=fault_env(), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == {"import": [], "exact": [], "fast_conv": []}
    # Both sweeps really ran and wrote their aggregates.
    for tag in ("exact", "fast_conv"):
        assert json.loads((tmp_path / f"{tag}.json").read_text())
        assert list((tmp_path / tag).glob("*.json"))
