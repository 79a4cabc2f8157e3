"""Command-line front end.

Exit codes: 0 success or verified, 1 verification failure (a theorem check
did not hold), 2 input or usage error.  All numeric output is exact.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import serialize
from .cfk2cfd import A2NonZero, Mismatch, build_cfd, verify_a1, verify_a2_zero
from .diagram import (TheoremViolation, cfd_class_from_determinants,
                      intersection_matrix, verify_cfdker)
from .dmodules import PmcMismatch, box_tensor, check_ainf, check_type_d, is_bounded
from .grading import gr_prime, m_table
from .grothendieck import class_of, euler_of_complex, pair, substitute
from .pmc import NAMED_PMCS, PointedMatchedCircle
from .satellite import FormulaMismatch, PatternClass, check_satellite_formula
from .strands import az_basis
from .torus import check_bigrading, check_cfa_weights

VERIFY_FAIL = (Mismatch, A2NonZero, FormulaMismatch, TheoremViolation)


def _load_pmc(spec: str) -> PointedMatchedCircle:
    if spec in NAMED_PMCS:
        return NAMED_PMCS[spec]()
    return serialize.read(spec, "pmc")[1]


def _read(path: str, *kinds: str):
    """serialize.read, then the structure check of the module it returns:
    check_type_d on a type D structure, check_ainf on an A-infinity module
    or pattern.  A failed check raises FixtureError naming the file."""
    kind, obj = serialize.read(path, *kinds)
    try:
        if kind == "typed":
            check_type_d(obj)
        elif kind in ("ainf", "pattern"):
            check_ainf(obj.cfa if kind == "pattern" else obj)
    except ValueError as exc:
        raise serialize.FixtureError(f"{path}: {exc}") from exc
    return kind, obj


def cmd_algebra(args) -> int:
    pmc = _load_pmc(args.pmc)
    basis = az_basis(pmc, args.summand)
    m = m_table(pmc) if args.gradings and args.summand == 0 else None
    rows = []
    for i, (el, (s, t)) in enumerate(zip(basis.elements, basis.idempotents)):
        row = {
            "element": str(el),
            "left": sorted(s),
            "right": sorted(t),
        }
        if args.gradings:
            row["gr"] = str(gr_prime(el))
            if m is not None:
                row["m"] = m[i]
        rows.append(row)
    if args.json:
        print(serialize.dumps({"pmc": serialize.pmc_to_json(pmc),
                               "summand": args.summand,
                               "dimension": len(basis), "basis": rows}), end="")
    else:
        print(f"A(Z, {args.summand}) has dimension {len(basis)}")
        for row in rows:
            line = f"  {row['element']}   I{row['left']} -> I{row['right']}"
            if args.gradings:
                line += f"   gr'={row['gr']}"
                if "m" in row:
                    line += f"   m={row['m']}"
            print(line)
    return 0


def cmd_k0(args) -> int:
    kind, module = _read(args.module, "typed", "ainf")
    cls = class_of(module)
    if args.json:
        print(serialize.dumps({"kind": kind,
                               "class": serialize.class_to_json(cls)}), end="")
    else:
        print(f"[{kind} module] = {cls}")
    return 0


def cmd_pair(args) -> int:
    _, pc = _read(args.cfa, "pattern")
    _, N = _read(args.cfd, "typed")
    if pc.cfa.pmc != N.pmc:
        raise PmcMismatch("modules over different pointed matched circles")
    w = args.weight
    product = pair(class_of(pc.cfa), substitute(class_of(N), w))
    report = {"pairing": serialize.laurent_to_json(product),
              "weight": w,
              "normalization": "none; the pairing is compared exactly"}
    code = 0
    if args.box:
        complex_ = box_tensor(pc.cfa, N, weight=w)
        chi = euler_of_complex(complex_)
        report["euler"] = serialize.laurent_to_json(chi)
        report["equal"] = chi == product
        code = 0 if chi == product else 1
    if args.json:
        print(serialize.dumps(report), end="")
    else:
        print(f"[M].[N] (weight {w}) = {product}")
        if args.box:
            print(f"chi(M box N)       = {chi}")
            print("verdict:", "OK" if code == 0 else "MISMATCH")
    return code


def cmd_cfd_from_cfk(args) -> int:
    _, cfk = _read(args.cfk, "cfk")
    cfd = build_cfd(cfk)
    delta_a1 = verify_a1(cfd, cfk)
    verify_a2_zero(cfd)
    if args.json:
        print(serialize.dump_type_d(cfd, {
            "class": serialize.class_to_json(class_of(cfd)),
            "alexander_polynomial": serialize.laurent_to_json(delta_a1),
            "bounded": is_bounded(cfd)}), end="")
    else:
        print(f"CFD has {len(cfd.generators)} generators "
              f"({sum(1 for g in cfd.generators.values() if g.idempotent == frozenset({1}))} iota0)")
        for src, i, dst in cfd.delta:
            print(f"  {src} --{serialize.dump_coefficient(cfd.basis, i)}--> {dst}")
        print(f"[CFD] = {class_of(cfd)}")
        print(f"a1 component = Delta_K(t) = {delta_a1}   (a2 component = 0)")
        print(f"bounded: {is_bounded(cfd)}")
    return 0


def cmd_satellite(args) -> int:
    _, pc = _read(args.cfa, "pattern")
    _, cfk = _read(args.cfk, "cfk")
    if not pc.cfa.basis.is_torus:
        raise serialize.FixtureError(f"{args.cfa}: module is not over the torus algebra")
    if args.winding is not None:
        pc = PatternClass(pc.cfa, args.winding)
    res = check_satellite_formula(pc, cfk)
    if args.json:
        print(serialize.dumps({
            "Q": serialize.laurent_to_json(res.q),
            "P": serialize.laurent_to_json(res.p),
            "Delta_K": serialize.laurent_to_json(res.delta_k),
            "winding": pc.winding,
            "pairing": serialize.laurent_to_json(res.pairing.poly),
            "satellite": serialize.laurent_to_json(res.satellite.poly),
            "symmetric": res.pairing.symmetric,
            "verdict": "OK",
            "normalization": "symmetric representative with q(1) >= 0",
        }), end="")
    else:
        print(f"pattern class:  Q = {res.q},  P = {res.p},  winding k = {pc.winding}")
        print(f"companion:      Delta_K(t) = {res.delta_k}")
        print(f"left side:      [CFA] . [CFD, k]        = {res.pairing.poly}")
        print(f"right side:     Delta_UC(t) Delta_K(t^k) = {res.satellite.poly}")
        print("normalization:  symmetric representative with q(1) >= 0")
        if args.report:
            print("a2 component of the companion class is zero; "
                  "P never contributes to the satellite polynomial")
        print("verdict: OK")
    return 0


def cmd_diagram_kernel(args) -> int:
    _, d = _read(args.diagram, "diagram")
    hk, enum = verify_cfdker(d)
    cls = cfd_class_from_determinants(d)
    report = {
        "matrix": intersection_matrix(d),
        "determinant_class": serialize.class_to_json(cls),
        "cfd_class": serialize.class_to_json(enum),
        "b1_rel": hk.b1_rel,
        "order": "infinite" if hk.order is None else hk.order,
        "kernel_wedge": serialize.class_to_json(hk.kernel_wedge),
        "verdict": "OK",
        "normalization": "classes compared componentwise up to one global sign",
    }
    if args.json:
        print(serialize.dumps(report), end="")
    else:
        print("M(H) =")
        for row in report["matrix"]:
            print("   ", row)
        print(f"subset determinants: {cls}")
        print(f"[CFD(H)]           : {enum}")
        print(f"b1(Y, dY) = {hk.b1_rel},  |H1(Y, dY)| = {report['order']}")
        print(f"kernel wedge = {hk.kernel_wedge}")
        print("verdict: OK (span [CFD] = |H1| * Lambda^k ker, up to one sign)")
    return 0


def _selftest(args) -> int:
    from .selfcheck import run_selfcheck
    failures = run_selfcheck(verbose=not args.json)
    if args.json:
        print(serialize.dumps({"failures": failures,
                               "verdict": "OK" if not failures else "FAIL"}),
              end="")
    return 0 if not failures else 1


def cmd_check(args) -> int:
    if args.selftest:
        return _selftest(args)
    if args.sign_report:
        from .selfcheck import az_sign_report
        pmc = _load_pmc(args.pmc)
        rep = az_sign_report(pmc)
        if args.json:
            print(serialize.dumps(rep), end="")
        else:
            print(f"sign grading report for {args.pmc}:")
            for key, value in rep.items():
                print(f"  {key}: {value}")
            print("  (absolute signs of non-product chord elements are a "
                  "gauge choice; relations are reported, not asserted)")
        return 0
    if not args.fixture:
        print("check: need a fixture file, --selftest, or --sign-report",
              file=sys.stderr)
        return 2
    kind, obj = _read(args.fixture, *([args.kind] if args.kind else []))
    if kind == "typed" and obj.basis.is_torus:
        check_bigrading(obj, args.framing)
    elif kind == "pattern" and obj.cfa.basis.is_torus:
        check_cfa_weights(obj.cfa, obj.winding)
    elif kind == "diagram":
        verify_cfdker(obj)
    print(f"{args.fixture}: valid {kind} fixture")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bdecat",
        description="decategorified bordered Heegaard Floer invariants")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="basis and gradings of A(Z, i)")
    p.add_argument("--pmc", default="torus",
                   help="named pmc (torus, split2, split3) or a JSON file")
    p.add_argument("--summand", type=int, default=0)
    p.add_argument("--gradings", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("k0", help="K0 class of a module fixture")
    p.add_argument("module")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_k0)

    p = sub.add_parser("pair", help="pair an A-infinity module with a type D structure")
    p.add_argument("cfa")
    p.add_argument("cfd")
    p.add_argument("--weight", type=int, default=1,
                   help="Alexander weight on the type D side (default 1)")
    p.add_argument("--box", action="store_true",
                   help="also form the box tensor complex and compare Euler characteristics")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("cfd-from-cfk", help="build CFD(S^3 \\ K, 0) from CFK data")
    p.add_argument("cfk")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cfd_from_cfk)

    p = sub.add_parser("satellite", help="check the satellite Alexander formula")
    p.add_argument("cfa")
    p.add_argument("cfk")
    p.add_argument("--winding", type=int, default=None)
    p.add_argument("--report", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_satellite)

    p = sub.add_parser("diagram-kernel",
                       help="intersection matrix, [CFD], and the kernel theorem")
    p.add_argument("diagram")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diagram_kernel)

    p = sub.add_parser("check", help="validate a fixture file or run the selftest")
    p.add_argument("fixture", nargs="?")
    p.add_argument("--kind", choices=sorted(serialize.KIND_LOADERS))
    p.add_argument("--framing", type=int, default=0,
                   help="framing at which every torus type D fixture has its "
                        "bigrading checked")
    p.add_argument("--selftest", action="store_true",
                   help="exhaustive algebra checks on the torus and split genus-2 circles")
    p.add_argument("--sign-report", action="store_true",
                   help="compare the intersection-sign grading with m (report only)")
    p.add_argument("--pmc", default="torus",
                   help="circle for --sign-report")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)
    return ap


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except VERIFY_FAIL as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
