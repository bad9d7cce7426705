"""Batch front-end: parse JSON inputs, dispatch backends, run suites.

Exit codes: 0 success, 1 verification defects, 2 parse/usage errors,
3 internal errors (printed with their traceback).
Reports are deterministic for a fixed config apart from elapsed_ms.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from .errors import SkeinlabError
from .ribbon_backend import BACKEND_NAMES, make_backend
from .skein_algebra import SkeinElement, lift_element, mu
from .poisson import fock_rosly_sigma, sigma_algebraic, sigma_goldman
from .surface import SurfacePattern, fuse
from .suites import SUITES
from .tangle import TangleWord, rt_evaluate


def _load(kind, path):
    """Parse the JSON file `path` with `kind.from_json`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SkeinlabError(f"cannot read {path}: {exc}")
    try:
        return kind.from_json(data)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise SkeinlabError(f"malformed {kind.__name__} in {path}: {type(exc).__name__}: {exc}") from exc


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _env_seed():
    try:
        return int(os.environ.get("SKEINLAB_SEED", "0"))
    except ValueError:
        raise SkeinlabError(f"SKEINLAB_SEED must be an integer, got {os.environ['SKEINLAB_SEED']!r}") from None


def _fusion_order(text):
    """The fusion order named by a `fusion=v1v2|v2v1` convention."""
    key, _, value = text.partition("=")
    if key != "fusion" or value not in ("v1v2", "v2v1"):
        raise argparse.ArgumentTypeError(f"unknown convention {text!r}")
    return value


def cmd_eval_tangle(args) -> int:
    backend = make_backend(args.backend, args.order)
    word = _load(TangleWord, args.file)
    _emit(rt_evaluate(word, backend).to_json(), args.out)
    return 0


def cmd_product(args) -> int:
    a = _load(SkeinElement, args.left)
    b = _load(SkeinElement, args.right)
    _emit(mu(a, b).to_json(), args.out)
    return 0


def cmd_sigma(args) -> int:
    if args.fr_diagonal is not None and args.method != "fock-rosly":
        raise SkeinlabError(f"--fr-diagonal applies to --method fock-rosly, not {args.method}")
    a = _load(SkeinElement, args.left)
    b = _load(SkeinElement, args.right)
    if args.method == "algebraic":
        if a.backend.name == "classical":
            ep = make_backend("epsilon")
            a, b = lift_element(a, ep), lift_element(b, ep)
        result = sigma_algebraic(a, b)
    elif args.method == "goldman":
        result = sigma_goldman(a, b)
    else:
        result = fock_rosly_sigma(a, b, include_diagonal=args.fr_diagonal != "exclude")
    payload = result.element.to_json()
    payload["method"] = result.method
    _emit(payload, args.out)
    return 0


def cmd_fuse(args) -> int:
    pattern = _load(SurfacePattern, args.file)
    _emit(fuse(pattern, args.v1, args.v2, order=args.fusion_order).to_json(), args.out)
    return 0


# verify's options that only some suites read: dest -> (flag, default);
# the seed defaults to $SKEINLAB_SEED, else 0
VERIFY_SUITE_OPTIONS = {
    "seed": ("--seed", None),
    "cases": ("--cases", 5),
    "backend": ("--backend", "classical"),
    "order": ("--order", 3),
    "fusion_order": ("--convention", "v1v2"),
}


def cmd_verify(args) -> int:
    runner, reads = SUITES[args.suite]
    for dest, (flag, default) in VERIFY_SUITE_OPTIONS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif dest not in reads:
            raise SkeinlabError(f"--suite {args.suite} does not read {flag}")
    backend = make_backend(args.backend, args.order)
    if args.cases < 1:
        raise SkeinlabError(f"--cases must be at least 1, got {args.cases}")
    if args.seed is None:
        args.seed = _env_seed()
    t0 = time.monotonic()
    cases = runner(*(getattr(args, o) for o in reads))
    cases.sort(key=lambda c: c["id"])
    defects = [c for c in cases if not c["ok"]]
    report = {
        "suite": args.suite,
        "seed": args.seed,
        "cases": len(cases),
        "defects": defects,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    if "backend" in reads:
        report.update(backend=args.backend, order=backend.mode.order)
    _emit(report, args.out)
    return 1 if defects else 0


def build_parser():
    """One subparser per command, holding only the options that command reads."""
    parser = argparse.ArgumentParser(prog="skeinlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def backend_options(p, backend="classical", order=3):
        p.add_argument("--backend", default=backend, choices=BACKEND_NAMES)
        p.add_argument("--order", type=int, default=order)

    def convention_option(p, default="fusion=v1v2"):
        p.add_argument("--convention", dest="fusion_order", type=_fusion_order, default=default,
                       metavar="fusion=v1v2|v2v1")

    p = sub.add_parser("eval-tangle", help="evaluate a tangle word JSON file")
    p.add_argument("file")
    backend_options(p)
    p.set_defaults(func=cmd_eval_tangle)

    p = sub.add_parser("product", help="multiply two skein element JSON files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("sigma", help="first-order deformation of a product")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--method", choices=("algebraic", "goldman", "fock-rosly"), default="algebraic")
    p.add_argument("--fr-diagonal", choices=("include", "exclude"), default=None)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("fuse", help="fuse two marked points of a pattern")
    p.add_argument("file")
    p.add_argument("v1", type=int)
    p.add_argument("v2", type=int)
    convention_option(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="default: $SKEINLAB_SEED, else 0")
    # None: not given; cmd_verify refuses it where the suite does not read it
    backend_options(p, None, None)
    convention_option(p, None)
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SkeinlabError, FileNotFoundError) as exc:
        return _fail(str(exc), 2)
    except Exception:
        traceback.print_exc()
        return _fail("internal error", 3)


if __name__ == "__main__":
    sys.exit(main())
