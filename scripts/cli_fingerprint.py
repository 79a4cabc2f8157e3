#!/usr/bin/env python3
"""Fingerprint the command line: one line per invocation, with its argv, its
exit code and the sha256 of its stdout and of its stderr.

    python3 scripts/cli_fingerprint.py > fingerprint.txt

It runs `bdecat.cli.run` in process, from the root of the checkout it sits
in and on that checkout's `src`, on:
- `algebra` on the torus and split2 circles, and every subcommand that reads
  one file (`check`, `k0`, `cfd-from-cfk`, `diagram-kernel`) on every shipped
  fixture;
- `pair` and `pair --box` for every pattern with every type D fixture and
  with the CFD that `cfd-from-cfk --json` builds from each CFK fixture;
- `satellite` for every pattern with every CFK fixture;
- `check --selftest`;
and then every flag:
- `algebra --summand i` for every i from -k to k on the torus and split2,
  with and without `--gradings`;
- `pair --box --weight w` for w in 0, 2 and -1, on the pairs above;
- `satellite` with `--winding 0`, `--winding 3` and `--report`;
- `check --framing n` for n = 1 and -1 on every type D file, the built CFDs
  among them;
- `check --kind` with every kind on every shipped fixture, its own kind and
  each wrong one;
- `check --sign-report --pmc` on the torus and split2;
each in text and with `--json`.  Paths are printed relative to the root,
and the directory holding the built CFDs as <tmp>, in the argv and in the
hashed output alike.  So running a copy of this script in two checkouts and
diffing the two outputs shows which invocations print differently.
"""

from __future__ import annotations

import hashlib
import io
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bdecat import cli  # noqa: E402  (needs the path above)


def fixtures(prefix: str = "") -> list[str]:
    return sorted(f"fixtures/{p.name}" for p in (ROOT / "fixtures").glob(f"{prefix}*.json"))


def capture(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `cli.run(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def fingerprint(argv: list[str], tmp: str) -> str:
    """The line of one invocation, tmp written as <tmp>."""
    code, out, err = capture(argv)
    out_sha, err_sha = (hashlib.sha256(text.replace(tmp, "<tmp>").encode()).hexdigest()
                        for text in (out, err))
    return f"{shlex.join(argv).replace(tmp, '<tmp>')} exit={code} out={out_sha} err={err_sha}"


def argvs(tmp: str) -> list[list[str]]:
    """Every argv of the module docstring, each in text and with --json;
    writes the CFD of each CFK fixture into tmp first."""
    cfds = []
    for cfk in fixtures("cfk_"):
        code, out, err = capture(["cfd-from-cfk", cfk, "--json"])
        if code != 0:
            raise SystemExit(f"cfd-from-cfk {cfk} exited {code}: {err}")
        cfds.append(os.path.join(tmp, "cfd_" + os.path.basename(cfk)))
        Path(cfds[-1]).write_text(out, encoding="utf-8")
    runs = [["algebra", "--pmc", pmc, *gradings]
            for pmc in ("torus", "split2") for gradings in ([], ["--gradings"])]
    runs += [[cmd, path] for cmd in ("check", "k0", "cfd-from-cfk", "diagram-kernel")
             for path in fixtures()]
    runs += [["pair", cfa, cfd, *box] for cfa in fixtures("cfa_")
             for cfd in fixtures("typed_") + cfds for box in ([], ["--box"])]
    runs += [["satellite", cfa, cfk] for cfa in fixtures("cfa_") for cfk in fixtures("cfk_")]
    runs.append(["check", "--selftest"])
    runs += [["algebra", "--pmc", pmc, "--summand", str(i), *gradings]
             for pmc, k in (("torus", 1), ("split2", 2)) for i in range(-k, k + 1)
             for gradings in ([], ["--gradings"])]
    runs += [["pair", cfa, cfd, "--box", "--weight", w] for cfa in fixtures("cfa_")
             for cfd in fixtures("typed_") + cfds for w in ("0", "2", "-1")]
    runs += [["satellite", cfa, cfk, *flags] for cfa in fixtures("cfa_")
             for cfk in fixtures("cfk_")
             for flags in (["--winding", "0"], ["--winding", "3"], ["--report"])]
    runs += [["check", typed, "--framing", n] for typed in fixtures("typed_") + cfds
             for n in ("1", "-1")]
    runs += [["check", path, "--kind", kind] for path in fixtures()
             for kind in ("ainf", "cfk", "diagram", "pattern", "pmc", "typed")]
    runs += [["check", "--sign-report", "--pmc", pmc] for pmc in ("torus", "split2")]
    return [argv + json for argv in runs for json in ([], ["--json"])]


def main() -> int:
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in argvs(tmp):
            print(fingerprint(argv, tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
