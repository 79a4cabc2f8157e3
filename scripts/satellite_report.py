#!/usr/bin/env python3
"""Tabulate the satellite Alexander polynomial for every shipped
(pattern, companion) pair and confirm the product formula on each.

Each pattern's A-infinity relations are checked first, as `bdecat satellite`
checks them; a pattern that fails gets one FAIL row and no companion rows.
Exits 1 when any check fails."""

import glob
import os
import sys

from bdecat import serialize as ser
from bdecat.dmodules import AInfRelationFails, check_ainf
from bdecat.satellite import check_satellite_formula, decompose

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def main() -> int:
    patterns = sorted(glob.glob(os.path.join(FIXTURES, "cfa_*.json")))
    companions = sorted(glob.glob(os.path.join(FIXTURES, "cfk_*.json")))
    failures = 0
    for ppath in patterns:
        pc = ser.pattern_from_json(ser.load_file(ppath))
        try:
            check_ainf(pc.cfa)
        except AInfRelationFails as exc:
            print(f"pattern {os.path.basename(ppath)}: FAIL ({exc})")
            failures += 1
            continue
        q, p = decompose(pc)
        print(f"pattern {os.path.basename(ppath)}: Q = {q}, P = {p}, "
              f"winding {pc.winding}")
        for cpath in companions:
            cfk = ser.cfk_from_json(ser.load_file(cpath))
            try:
                res = check_satellite_formula(pc, cfk)
                delta, sat, verdict = res.delta_k, res.pairing.poly, "OK"
            except Exception as exc:  # pragma: no cover - report then fail
                delta, sat, verdict = "-", "-", f"FAIL ({exc})"
                failures += 1
            name = os.path.basename(cpath).removeprefix("cfk_").removesuffix(".json")
            print(f"    {name:<24} Delta_K = {str(delta):<28} "
                  f"satellite = {sat}   {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
