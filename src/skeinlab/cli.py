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
from dataclasses import dataclass

from .errors import SkeinlabError
from .ribbon_backend import BACKEND_NAMES, make_backend
from .skein_algebra import SkeinElement, lift_element, mu
from .poisson import fock_rosly_sigma, sigma_algebraic, sigma_goldman
from .surface import SurfacePattern, fuse
from .suites import BACKEND_SUITES, SUITES
from .tangle import TangleWord, rt_evaluate


@dataclass
class RunConfig:
    backend: str = "classical"
    order: int = 3
    seed: int = 0
    fusion_order: str = "v1v2"
    fr_diagonal: bool = True
    out: str | None = None
    cases: int = 5

    def validate(self):
        if self.backend not in BACKEND_NAMES:
            raise SkeinlabError(f"unknown backend {self.backend!r}")
        if self.backend == "drinfeld" and self.order > 3:
            raise SkeinlabError("drinfeld backend supports orders <= 3")
        if self.cases < 1:
            raise SkeinlabError(f"--cases must be at least 1, got {self.cases}")


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


def _config_from(args) -> RunConfig:
    seed = args.seed
    if seed is None:
        try:
            seed = int(os.environ.get("SKEINLAB_SEED", "0"))
        except ValueError:
            raise SkeinlabError(f"SKEINLAB_SEED must be an integer, got {os.environ['SKEINLAB_SEED']!r}") from None
    fusion_order = "v1v2"
    fr_diagonal = True
    for conv in args.convention or []:
        key, _, value = conv.partition("=")
        if key == "fusion" and value in ("v1v2", "v2v1"):
            fusion_order = value
        else:
            raise SkeinlabError(f"unknown convention {conv!r}")
    if args.fr_diagonal is not None:
        fr_diagonal = args.fr_diagonal == "include"
    cfg = RunConfig(
        backend=args.backend,
        order=args.order,
        seed=seed,
        fusion_order=fusion_order,
        fr_diagonal=fr_diagonal,
        out=args.out,
        cases=getattr(args, "cases", 5),
    )
    cfg.validate()
    return cfg


def cmd_eval_tangle(args) -> int:
    cfg = _config_from(args)
    backend = make_backend(cfg.backend, cfg.order)
    word = _load(TangleWord, args.file)
    result = rt_evaluate(word, backend)
    _emit(result.to_json(), cfg.out)
    return 0


def cmd_product(args) -> int:
    cfg = _config_from(args)
    a = _load(SkeinElement, args.left)
    b = _load(SkeinElement, args.right)
    result = mu(a, b)
    _emit(result.to_json(), cfg.out)
    return 0


def cmd_sigma(args) -> int:
    cfg = _config_from(args)
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
        result = fock_rosly_sigma(a.pattern, a, b, include_diagonal=cfg.fr_diagonal)
    payload = result.element.to_json()
    payload["method"] = result.method
    _emit(payload, cfg.out)
    return 0


def cmd_fuse(args) -> int:
    cfg = _config_from(args)
    pattern = _load(SurfacePattern, args.file)
    fused = fuse(pattern, args.v1, args.v2, order=cfg.fusion_order)
    _emit(fused.to_json(), cfg.out)
    return 0


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    runner = SUITES.get(args.suite)
    if runner is None:
        return _fail(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}", 2)
    t0 = time.monotonic()
    cases = runner(
        {
            "backend": cfg.backend,
            "order": cfg.order,
            "seed": cfg.seed,
            "cases": cfg.cases,
            "fusion_order": cfg.fusion_order,
            "fr_diagonal": cfg.fr_diagonal,
        }
    )
    cases.sort(key=lambda c: c["id"])
    defects = [c for c in cases if not c["ok"]]
    report = {
        "suite": args.suite,
        "seed": cfg.seed,
        "cases": len(cases),
        "defects": defects,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    if args.suite in BACKEND_SUITES:
        report.update(backend=cfg.backend, order=make_backend(cfg.backend, cfg.order).mode.order)
    _emit(report, cfg.out)
    return 1 if defects else 0


def build_parser():
    parser = argparse.ArgumentParser(prog="skeinlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--backend", default="classical", choices=BACKEND_NAMES)
        p.add_argument("--order", type=int, default=3)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--convention", action="append", metavar="fusion=v1v2|v2v1")
        p.add_argument("--fr-diagonal", choices=("include", "exclude"), default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("eval-tangle", help="evaluate a tangle word JSON file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_eval_tangle)

    p = sub.add_parser("product", help="multiply two skein element JSON files")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("sigma", help="first-order deformation of a product")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--method", choices=("algebraic", "goldman", "fock-rosly"), default="algebraic")
    common(p)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("fuse", help="fuse two marked points of a pattern")
    p.add_argument("file")
    p.add_argument("v1", type=int)
    p.add_argument("v2", type=int)
    common(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--cases", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_verify)

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
