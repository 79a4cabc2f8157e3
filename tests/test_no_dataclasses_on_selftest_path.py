"""A fresh `import bdecat.selfcheck` loads neither `dataclasses` nor
`inspect`.  The records of `pmc`, `strands` and `grading` are tuples and
slotted classes; one stray @dataclass there would bring back the cost of
those imports on every selftest run."""

import os
import subprocess
import sys

import bdecat


def test_the_selftest_import_loads_no_dataclasses():
    src = os.path.dirname(os.path.dirname(bdecat.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, bdecat.selfcheck; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[]\n"
