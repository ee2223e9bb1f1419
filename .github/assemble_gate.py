"""Gate the bytes of a cold ``ps12 assemble`` on a seeded 16 x 16 grid.

Writes the perturbed 16 x 16 grid of ``perfbench/refmath.py`` (seed 16) and
its random Hermite data as exact and as float JSON, runs ``ps12 assemble`` on
each in a fresh process, and exits non-zero unless the sha256 of its stdout
and stderr match the pins below.  The bytes come from + - * /, int-to-float
rounding and repr alone, so they are the same on every platform and Python
version (``ps12 nodal`` calls math.cos and math.sin, and stays ungated).

Run from the repository root with the package installed (``ps12`` on PATH):
    python .github/assemble_gate.py
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import refmath  # noqa: E402

PINNED = {
    "exact": ("dd5f8a7639a2199a947ad8f54c9bda392832d97170ca551607d73443c8825a91",
              "e7001e40a4607af18f4fc27b7a251fab6ab18c46cd6fd15a806b9351eb038ec3"),
    "float": ("bdf819fcb40a53eefd88c0bff3579a635d47153d940a90905fca4760d2714c48",
              "67cc835b00e04a87f3dd77b2186a8bd50a9314deea60e577b3848ad58a45303c"),
}


def main() -> int:
    failed = []
    rng = random.Random(16)
    verts, tris = refmath.perturbed_grid(rng, 16, 16)
    jets, edges = refmath.random_hermite_data(rng, verts, tris)
    with tempfile.TemporaryDirectory() as tmp:
        for layer, num in (("exact", lambda x: f"{x.numerator}/{x.denominator}"),
                           ("float", float)):
            mesh, data = (os.path.join(tmp, f"grid16-{layer}-{kind}.json")
                          for kind in ("mesh", "data"))
            with open(mesh, "w") as fh:
                json.dump({"vertices": [[num(x) for x in v] for v in verts],
                           "triangles": [list(t) for t in tris]}, fh)
            with open(data, "w") as fh:
                json.dump({"vertex_jets": {str(v): [num(x) for x in j] for v, j in jets.items()},
                           "edge_data": {f"{a}-{b}": [num(x) for x in d]
                                         for (a, b), d in edges.items()}}, fh)
            t0 = time.perf_counter()
            r = subprocess.run(["ps12", "assemble", "--mesh", mesh, "--data", data],
                               check=True, capture_output=True)
            got = tuple(hashlib.sha256(b).hexdigest() for b in (r.stdout, r.stderr))
            print(f"cold ps12 assemble on the 16 x 16 grid, {layer}: "
                  f"{time.perf_counter() - t0:.3f} s, stdout sha256 {got[0]}, "
                  f"stderr sha256 {got[1]}")
            if got != PINNED[layer]:
                failed.append(layer)
    if failed:
        print(f"cold ps12 assemble bytes differ from the pins: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
