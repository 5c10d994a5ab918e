"""Tour of the constructive layer: chamber covers, extensions, certificates.

Run with:  python3 demos/03_realizations.py
"""

import tempfile
from pathlib import Path

from convexcodes import (
    AMBIENT_WHOLE,
    Code,
    PolyhedralCover,
    abstract_code,
    abstract_from_cover,
    max_int_realization,
    monotone_extend,
    open_interval,
    potential_cover,
    realize,
    replay_certificate,
    simplicial_complex,
)
from convexcodes.cli import main

# The chamber construction realizes the intersection completion of a code's
# maximal words as an open cover built from a rational simplex arrangement.
realz, cert = max_int_realization(Code.from_compact(4, "123 134"), AMBIENT_WHOLE)
print("maximal words 123, 134 -> chamber cover in dimension", cert.dimension)
print("achieved over the whole space:", " ".join(cert.achieved.labels()))
for check in cert.checks:
    print(f"  check {check.name}: {check.status} ({check.detail})")
print()

# Adding non-maximal words: one fresh point per word, code grows exactly.
cover = PolyhedralCover(
    1, (open_interval(0, 6), open_interval(1, 5), open_interval(2, 4)), AMBIENT_WHOLE
)
abstract = abstract_from_cover(cover)
faces = Code(3, frozenset(simplicial_complex(abstract_code(abstract)).faces()))
extended = monotone_extend(abstract, faces)
print("nested intervals extended to the full face code:",
      " ".join(abstract_code(extended).labels()))
print()

# The potential cover realizes the intersection completion with closed
# convex hulls of basis vectors; every atom gets an exact witness.
realz, cert = potential_cover(Code.from_compact(2, "1 2 12"))
print("potential cover of {1,2,12} achieves:", " ".join(cert.achieved.labels()))
print()

# End to end: any max intersection-complete code is realizable in
# dimension max(2, k-1), with a replayable certificate.
cert = realize(Code.from_compact(4, "123 134 13 1"))
print("realize {123,134,13,1}: method", cert.method, "dimension", cert.dimension,
      "valid", cert.valid, "replay", replay_certificate(cert))

# The CLI writes the same artifacts as a bundle.
with tempfile.TemporaryDirectory() as tmp:
    code_file = Path(tmp) / "code.txt"
    code_file.write_text("n=4\n1\n1 3\n1 2 3\n1 3 4\n")
    main(["realize", str(code_file), "--out", str(Path(tmp) / "bundle")])
    print("bundle files:", sorted(p.name for p in (Path(tmp) / "bundle").iterdir()))
