"""Batch command-line driver.

Subcommands: markers, dstar, purify, assemble, verify, report.  Exit codes:
0 all checks passed, 1 an invariant check failed, 2 configuration error.
Reports are JSON with sorted keys, exact fractions rendered as "p/q", and an
embedded config hash plus tool version, so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from . import __version__

# Each _cmd_* imports only the modules (and csv) it runs: with no bytecode
# cache, a module imported here would be compiled for every command.


class ConfigError(ValueError):
    pass


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _atomic_write(path: str | Path, data: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# CPython's own SHA-256, without OpenSSL: hashlib would map libcrypto into
# every job for one digest of a few KB.  The module is _sha2 from 3.12 and
# _sha256 before; each is a stdlib name on its versions only, so they are
# imported by name.
_SHA256_MODULES = ("_sha2", "_sha256")


def _sha256(data: bytes) -> str:
    """The hex SHA-256 of data, from the first built-in module present, or
    from hashlib on a build that has neither."""
    for name in _SHA256_MODULES:
        try:
            return __import__(name).sha256(data).hexdigest()
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _emit_report(path: str | None, report: dict, config_bytes: bytes) -> None:
    report = dict(report)
    report["version"] = __version__
    report["config_sha256"] = _sha256(config_bytes)
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _parse_trunc(s: str) -> tuple[int, int]:
    try:
        rows, width = s.lower().split("x")
        trunc = int(rows), int(width)
    except ValueError as exc:
        raise ConfigError(f"bad truncation {s!r}, expected LxR") from exc
    if min(trunc) < 1:
        raise ConfigError(f"bad truncation {s!r}, both sizes must be at least 1")
    return trunc


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1, got {value}")


def _parse(what: str, parser, *args):
    """``parser(*args)``, reporting a ValueError as a configuration error."""
    try:
        return parser(*args)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _int_list(s: str) -> tuple[int, ...]:
    return tuple(map(int, s.split(",")))


def _cmd_markers(args) -> int:
    from .markers import (
        balance_windows,
        build_marker_system,
        check_balanced,
        check_two_gaps,
        write_mrk,
    )

    _require_positive("--columns", args.columns)
    gaps = _parse("gap list", _int_list, args.gaps)
    ms = _parse(
        "marker hierarchy", build_marker_system, args.columns, args.origin, gaps
    )
    counts = ms.gap_counts()
    checks = {
        "two_gaps": all(map(check_two_gaps, counts, gaps)),
        # MarkerSystem refuses a pattern that does not sum to its gap
        "congruency": True,
        "balanced": all(
            check_balanced(ms, k, window)
            for k, window in enumerate(balance_windows(gaps), start=1)
        ),
    }
    if args.out:
        write_mrk(args.out, ms)
    config = f"markers {args.columns} {args.origin} {gaps}".encode()
    _emit_report(
        args.report,
        {
            "command": "markers",
            "columns": args.columns,
            "gaps": list(gaps),
            "rows": [sum(c.values()) + 1 for c in counts],
            "checks": checks,
        },
        config,
    )
    return 0 if all(checks.values()) else 1


def _cmd_dstar(args) -> int:
    from .arrays import read_arr, window_to_rectangle
    from .measures import dstar, empirical_measure

    trunc = _parse_trunc(args.trunc)
    wa, _ = _parse(".arr file", read_arr, args.a)
    wb, _ = _parse(".arr file", read_arr, args.b)
    d = dstar(
        _parse("--trunc", empirical_measure, window_to_rectangle(wa), trunc),
        _parse("--trunc", empirical_measure, window_to_rectangle(wb), trunc),
        trunc,
    )
    print(f"{d.value.numerator}/{d.value.denominator} {float(d.value):.10f}")
    print(
        f"tail_bound {d.tail_bound.numerator}/{d.tail_bound.denominator}"
    )
    return 0


def _cmd_purify(args) -> int:
    from .purify import config_from_dict, purify_pipeline

    raw_bytes = Path(args.config).read_bytes()
    try:
        config = config_from_dict(json.loads(raw_bytes))
    # JSON nested past the recursion limit raises RecursionError
    except (LookupError, ValueError, TypeError, AttributeError,
            RecursionError) as exc:
        raise ConfigError(f"bad purify config: {exc}") from exc
    report = purify_pipeline(config)
    report["command"] = "purify"
    _emit_report(args.out, report, raw_bytes)
    return 0 if report["ok"] else 1


def _cmd_assemble(args) -> int:
    from .assemble import (
        NotFoundWithinHorizon,
        NoWitness,
        _bit_alphabet,
        build_stitch_kit,
        check_stitchable,
        write_kit,
    )
    from .generators import parse_spec

    _require_positive("--levels", args.levels)
    _require_positive("--horizon", args.horizon)
    spec = _parse("oracle", parse_spec, args.oracle)
    oracle = spec.oracle(args.horizon)
    _parse("oracle", _bit_alphabet, oracle)
    config = f"assemble {args.oracle} {args.levels} {args.horizon}".encode()
    try:
        kit = build_stitch_kit(oracle, args.levels, args.horizon)
    except NotFoundWithinHorizon as exc:
        _emit_report(
            args.report,
            {
                "command": "assemble",
                "oracle": args.oracle,
                "outcome": "not_found_within_horizon",
                "detail": str(exc),
            },
            config,
        )
        return 1
    stitch = {}
    for l in sorted(set(kit.l_sequence + args.tab)):
        if l < kit.l_sequence[0]:
            detail = f"length {l} below l_1 = {kit.l_sequence[0]}"
            stitch[str(l)] = {"outcome": "below_l1", "detail": detail}
            continue
        try:
            good, bad = check_stitchable(kit, l)
        except (NoWitness, NotFoundWithinHorizon) as exc:
            stitch[str(l)] = {"outcome": "no_witness", "detail": str(exc)}
            continue
        stitch[str(l)] = {"stitchable": good, "violations": len(bad)}
    ok = all(entry.get("stitchable") for entry in stitch.values())
    if args.out:
        write_kit(args.out, kit)
    _emit_report(
        args.report,
        {
            "command": "assemble",
            "oracle": args.oracle,
            "outcome": "ok" if ok else "failed",
            "l_sequence": kit.l_sequence,
            "transition_lengths": [lb for _, lb in kit.bases],
            "stitchable": stitch,
        },
        config,
    )
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    from .arrays import read_arr, validate_window

    w, rows = _parse(".arr file", read_arr, args.arr)
    checks = {"window_valid": validate_window(w)}
    if rows is not None:
        checks.update(_marker_checks(rows))
    for name, value in sorted(checks.items()):
        print(f"{name}: {'pass' if value else 'fail'}")
    return 0 if all(checks.values()) else 1


def _marker_checks(rows) -> dict[str, bool]:
    """The verdicts on an .arr file's marker rows, each a sorted tuple of
    positions: a row's gap lengths are at most one apart, and every marker
    of row k+1 is one of row k."""
    lengths = [{b - a for a, b in zip(row, row[1:])} for row in rows]
    return {
        "two_gaps": all(max(g) - min(g) <= 1 for g in lengths if g),
        "congruency": all(set(b) <= set(a) for a, b in zip(rows, rows[1:])),
    }


def _cmd_report(args) -> int:
    import csv
    import io

    try:
        data = json.loads(Path(args.input).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read report: {exc}") from exc
    try:
        rows = _report_rows(data)
    except (LookupError, TypeError, AttributeError, ArithmeticError,
            ValueError) as exc:
        raise ConfigError(
            f"not a purify report: {type(exc).__name__}: {exc}"
        ) from exc
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "series"])
    writer.writerows(rows)
    if args.out:
        _atomic_write(args.out, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def _report_rows(data: dict) -> list[tuple[int, float, str]]:
    rows = []
    for si, stage in enumerate(data["stages"], start=1):
        for path, fam in sorted(stage["families"].items()):
            rows.append((si, _as_float(fam["diameter"]), f"diameter:{path}"))
            rows.append(
                (si, _as_float(fam["displacement_max"]), f"displacement:{path}")
            )
            for s in fam["samples"]:
                rows.append(
                    (
                        si,
                        _as_float(s["changed_fraction"]),
                        f"changed:{s['generator']}",
                    )
                )
    return rows


def _as_float(v) -> float:
    """A report number (an int or a "p/q" string) as a float; a bool, NaN,
    an infinity or another string raises."""
    if isinstance(v, bool):
        raise TypeError(f"expected a number, got {v!r}")
    return float(Fraction(v))


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="strictform",
        description="Finite marker/metric/purify/assemble workflows.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("markers", help="build and check a marker hierarchy")
    m.add_argument("--columns", type=int, required=True)
    m.add_argument("--origin", type=int, default=0)
    m.add_argument("--gaps", required=True, help="comma-separated l_k")
    m.add_argument("--out", help="write .mrk file")
    m.add_argument("--report", help="write JSON report")
    m.set_defaults(func=_cmd_markers)

    d = sub.add_parser("dstar", help="truncated distance between two windows")
    d.add_argument("--a", required=True)
    d.add_argument("--b", required=True)
    d.add_argument("--trunc", required=True, help="LxR, e.g. 2x4")
    d.set_defaults(func=_cmd_dstar)

    pu = sub.add_parser("purify", help="run the staged purification pipeline")
    pu.add_argument("--config", required=True)
    pu.add_argument("--out", help="write JSON report")
    pu.set_defaults(func=_cmd_purify)

    a = sub.add_parser("assemble", help="build and check a stitch kit")
    a.add_argument("--oracle", required=True, help="generator spec string")
    a.add_argument("--levels", type=int, default=2)
    a.add_argument("--horizon", type=int, default=64)
    a.add_argument(
        "--tab", nargs="*", type=int, default=[], help="extra tab lengths"
    )
    a.add_argument("--out", help="write .kit file")
    a.add_argument("--report", help="write JSON report")
    a.set_defaults(func=_cmd_assemble)

    v = sub.add_parser("verify", help="validate an .arr file")
    v.add_argument("--arr", required=True)
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("report", help="flatten a purify report to plot CSV")
    r.add_argument("--input", required=True)
    r.add_argument("--out", help="CSV output path")
    r.set_defaults(func=_cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
