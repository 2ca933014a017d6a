"""Command-line front end.

Subcommands
-----------

``equilibria``    solve and tabulate UE and SO link flows and times
``scheme``        run the full guidance pipeline and the verification checks
``improvement``   per-VOT cost comparison against the no-policy equilibrium
``assign``        per-user guidance for a roster of subscribers/outsiders

All output files are deterministic: rerunning a subcommand with identical
inputs (and seed) reproduces them byte for byte. A rerun replaces each file
rather than writing into it, so a symlink in its place is replaced, not
followed. JSON and ``improvement.csv`` floats are written in the shortest
round-trip form; the text tables and ``assignments.csv`` round to display
precision (0.1 min, $0.01, 0.1 $/h).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NoReturn

import numpy as np

from .equilibrium import DEFAULT_TOL, average_time, check_tol, solve_so, solve_ue
from .network import enumerate_paths, parse_network
from .scheme import (
    SchemeError,
    assign_outsider,
    check_declared_vot,
    cost_report,
    run_scheme,
    vot_ranks,
)
from .verify import StrategyProofResult, check_pareto, run_verification
from .vot import check_class_count, parse_vot

DEFAULT_REPORT_GRID = 401
# not a flag: the strategy-proofness check takes both ends of every rank and
# no lattice. Kept only for ``benchmarks/tracing.py``; delete it when the
# trace stops reading it
DEFAULT_SP_GRID = StrategyProofResult.grid
# the largest --grid: the cost report holds a few float arrays of this size
MAX_GRID = 100_000
# strings of ``lines`` joined per write: a write call per string costs more
# than the joining, and a larger block only holds more of the file in memory
_WRITE_BLOCK = 8192


# -- output files ------------------------------------------------------------


def _write(path: Path, text: str, lines=()) -> None:
    """Write ``text``, then the strings ``lines``, to a new file at ``path``
    in place of whatever was there: unlinking it first, not truncating it,
    spares a rerun the flush ext4 gives a truncated file when it is closed.
    ``lines`` may be any iterable; it is written in blocks of
    ``_WRITE_BLOCK`` strings, each joined into one write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
        lines = iter(lines)
        while block := list(itertools.islice(lines, _WRITE_BLOCK)):
            handle.write("".join(block))


def _write_json(path: Path, obj) -> None:
    """Sorted keys, two-space indent, each float in its shortest round-trip
    form; NaN and inf raise ValueError."""
    _write(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


# -- shared loading ----------------------------------------------------------


def _parse_file(parse, path):
    """``parse`` applied to the UTF-8 text of the file at ``path``, less a
    leading byte order mark; an error in the text, its encoding or its
    nesting depth names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_inputs(args):
    """Read the network and VOT files and apply ``--classes``; returns the
    network, the VOT distribution and the class count."""
    net = _parse_file(parse_network, args.network)
    dist, M = _parse_file(parse_vot, args.vot)
    if args.classes is not None:
        check_class_count(args.classes, "--classes")
        M = args.classes
    return net, dist, M


def _row(label: str, cells, width: int = 12) -> str:
    return label.ljust(16) + (f"{{:>{width}}}" * len(cells)).format(*cells)


# -- subcommands -------------------------------------------------------------


def cmd_equilibria(args) -> int:
    net = _parse_file(parse_network, args.network)
    paths = enumerate_paths(net)
    so = solve_so(net, paths, tol=args.tol)
    ue = solve_ue(net, paths, tol=args.tol, start=so.path_flows)
    payload = {"links": [ln.id for ln in net.links],
               "ue": _solution_dict(ue, net), "so": _solution_dict(so, net)}

    # the text table is formatted from the JSON records
    regimes = [(key.upper(), payload[key]) for key in ("ue", "so")]
    lines = [_row("Link", [f"({i})" for i in payload["links"]])]
    for regime, record in regimes:
        lines.append(_row(f"{regime} flow", [f"{v:.1f}" for v in record["flows"]]))
        lines.append(_row(f"{regime} time (min)", [f"{v:.1f}" for v in record["times_min"]]))
    if net.demand > 0:
        averages = ", ".join(f"{regime} {record['average_min']:.1f}" for regime, record in regimes)
        lines += ["", f"Average time (min): {averages}"]
    text = "\n".join(lines) + "\n"

    out = Path(args.out)
    _write(out / "equilibria.txt", text)
    _write_json(out / "equilibria.json", payload)
    print(text, end="")
    return 0


def _solution_dict(sol, net) -> dict:
    data = {
        "flows": sol.link_flows.tolist(),
        "times_min": net.link_times(sol.link_flows).tolist(),
        "path_flows": sol.path_flows.tolist(),
        "path_times_min": sol.path_times.tolist(),
        "total_flow_minutes": sol.total_time,
        "relative_gap": sol.relative_gap,
        "iterations": sol.iterations,
    }
    if net.demand > 0:
        data["average_min"] = average_time(sol)
    if sol.ue_time is not None:
        data["equilibrium_time_min"] = sol.ue_time
    return data


def _run_with_baseline(args, report_grid: int):
    """The network, scheme result, user equilibrium and ``report_grid``-point
    cost report that ``scheme`` and ``improvement`` share. The UE is solved
    last, so input and subscriber-LP errors are reported ahead of its own,
    and it starts from the SO's path flows."""
    net, dist, M = _load_inputs(args)
    result = run_scheme(net, dist, M, tol=args.tol)
    ue = solve_ue(net, result.paths, tol=args.tol, start=result.so.path_flows)
    return net, result, ue, cost_report(result.outcome, ue, report_grid)


# one entry of scheme.json's "paths" list as json.dumps(indent=2,
# sort_keys=True) lays it out; field {i} takes the JSON of _PATH_FIELDS[i]
_PATH_FIELDS = ("label", "path", "time_min", "subscribers", "outsiders", "share",
                "vot_low", "vot_high", "payment_usd")
_PATH_RECORD = "    {{\n%s\n    }}" % ",\n".join(
    f'      "{key}": {{{_PATH_FIELDS.index(key)}}}' for key in sorted(_PATH_FIELDS))


def cmd_scheme(args) -> int:
    net, result, ue, report = _run_with_baseline(args, DEFAULT_REPORT_GRID)
    outcome, paths = result.outcome, result.paths
    verification = run_verification(outcome, report)

    # per-path columns in enumeration order; a path not in the outcome is
    # unused: share 0, and None for its VOT range and payment ("-" and null)
    table = np.full((7, len(paths)), None, dtype=object)
    table[:3] = (result.so.path_times, result.assignment.subscriber_path_flows,
                 result.assignment.outsider_path_flows)
    table[3] = 0.0
    table[3:, outcome.order] = (outcome.rho, outcome.partition[:-1],
                                outcome.partition[1:], outcome.payments)
    times, subscribers, outsiders, share, low, high, payment = columns = table.tolist()

    labels = paths.labels()
    width = max(12, max(len(s) for s in labels) + 2)
    lines = [
        _row("Path", labels, width),
        _row("Time (min)", [f"{v:.1f}" for v in times], width),
        _row("Subscribers", [f"{v:.1f}" for v in subscribers], width),
        _row("Outsiders", [f"{v:.1f}" for v in outsiders], width),
        _row("VOT ($/h)", ["-" if a is None else f"({a:.1f},{b:.1f}]"
                           for a, b in zip(low, high)], width),
        _row("Payment ($)", ["-" if v is None else f"{v:.2f}" for v in payment], width),
        "",
        f"Verification: {'PASS' if verification.passed else 'FAIL'}"
        f" (worst misreport margin {verification.strategy_proof.worst_margin_usd:.3e} $,"
        f" revenue residual {verification.revenue_neutral.residual_usd:.3e} $)",
    ]
    text = "\n".join(lines) + "\n"

    # each cell's JSON text, from one encoding of the columns; NaN and inf raise ValueError
    cells = [c.split(", ") for c in json.dumps(columns, allow_nan=False)[2:-2].split("], [")]
    records = ",\n".join(map(
        _PATH_RECORD.format, map(encode_basestring_ascii, labels),
        ["[\n        %s\n      ]" % ",\n        ".join(map(str, p)) for p in paths.paths], *cells))
    payload = {"paths": [], "subscriber_demand": net.subscriber_demand,
               "outsider_demand": net.outsider_demand,
               "weighted_cost": result.assignment.weighted_cost,
               "so_relative_gap": result.so.relative_gap,
               "ue_relative_gap": ue.relative_gap, "vot_classes": result.classes.M}
    document = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False).replace(
        '"paths": []', f'"paths": [\n{records}\n  ]', 1)

    out = Path(args.out)
    _write(out / "scheme.txt", text)
    _write(out / "scheme.json", document + "\n")
    _write_json(out / "verification.json", verification.to_dict())
    print(text, end="")
    if not verification.passed:
        print(f"error: verification failed; see {out / 'verification.json'}",
              file=sys.stderr)
        return 1
    return 0


def cmd_improvement(args) -> int:
    if not 2 <= args.grid <= MAX_GRID:  # before any file is read
        raise ValueError(f"--grid must be an integer in [2, {MAX_GRID}]")
    _, result, _, report = _run_with_baseline(args, args.grid)

    # the header is the report's field names, a column each; a cell is the
    # repr of a Python float, its shortest round-trip form (numpy 2 spells a
    # numpy float's repr np.float64(...)); NaN is empty
    names = [field.name for field in fields(report)]
    rows = np.column_stack([getattr(report, name) for name in names]).tolist()
    out = Path(args.out)
    _write(out / "improvement.csv", ",".join(names) + "\n",
           (",".join(["" if v != v else repr(v) for v in row]) + "\n" for row in rows))

    pareto = check_pareto(result.outcome, report)
    print(
        f"wrote {out / 'improvement.csv'} ({report.beta.size} rows); "
        f"cost ordering {'PASS' if pareto.passed else 'FAIL'}"
    )
    if not pareto.passed:
        print("error: cost ordering no-policy >= quitter >= subscriber failed",
              file=sys.stderr)
        return 1
    return 0


def cmd_assign(args) -> int:
    """Guidance for every roster user, written to ``assignments.csv``.

    The roster is read and checked against the VOT support before the
    solve, so a bad row fails fast. Guidance needs no user equilibrium, so
    none is solved. Subscribers get their paths from one
    :func:`vot_ranks` lookup, outsiders from one seeded draw in file order.
    Each row is the user's cell and a tail formatted once per (path,
    role), passed as two strings and written in joined blocks.
    """
    if args.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    net, dist, M = _load_inputs(args)
    user_ids, vots = _read_roster(args.roster, dist.support)
    result = run_scheme(net, dist, M, tol=args.tol)
    outcome = result.outcome

    order = np.asarray(outcome.order)
    vots = np.fromiter(vots, float, len(vots))
    is_subscriber = ~np.isnan(vots)
    user_paths = np.empty(vots.size, dtype=int)
    user_paths[is_subscriber] = order[vot_ranks(outcome, vots[is_subscriber])]
    user_paths[~is_subscriber] = assign_outsider(
        outcome, args.seed, size=vots.size - np.count_nonzero(is_subscriber)
    )

    # row tails after the user cell, outsiders' for paths 0..n-1 then
    # subscribers', indexed by original path index; an unused path has none
    n = len(result.paths)
    labels = result.paths.labels()
    times = result.so.path_times
    payment = dict(zip(outcome.order, outcome.payments.tolist()))
    tails = [
        _csv_line(["", role, labels[p], f"{times[p]:.1f}",
                   f"{payment[p]:.2f}" if role == "subscriber" else ""])
        if p in payment else None
        for role in ("outsider", "subscriber")
        for p in range(n)
    ]
    which = (user_paths + n * is_subscriber).tolist()

    cells = _user_cells(user_ids)
    out = Path(args.out)
    _write(out / "assignments.csv", "user_id,role,path,time_min,payment_usd\n",
           itertools.chain.from_iterable(zip(cells, map(tails.__getitem__, which))))
    print(f"wrote {out / 'assignments.csv'} ({len(user_ids)} users)")
    return 0


def _csv_line(cells) -> str:
    """One row as ``csv.writer`` writes it, with a newline terminator."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    return buffer.getvalue()


def _plain(text: str) -> bool:
    """Whether ``text`` holds none of the characters that can make
    ``csv.writer`` quote a field. Python 3.11 leaves a bare \\r unquoted, and
    an id with \\r still goes to ``csv.writer``, so its cell follows whatever
    the running version does."""
    return "," not in text and '"' not in text and "\r" not in text and "\n" not in text


def _user_cells(user_ids) -> list:
    """Each user id as ``csv.writer`` writes it first in a row.

    An id with no character that could need quoting is its own cell; the
    common all-plain roster is recognised by four substring tests on the
    joined ids. A None id (a row cut short) or one that may need quoting
    gets its cell from ``csv.writer`` itself.
    """
    try:
        if _plain("".join(user_ids)):
            return user_ids
    except TypeError:  # a None id
        pass
    return [
        user if user is not None and _plain(user) else _csv_line([user, ""])[:-2]
        for user in user_ids
    ]


def _read_roster(path, support) -> tuple[list, list[float]]:
    """User ids and declared VOTs of a roster, in file order, read and
    checked in one pass; an outsider's VOT is NaN. A leading byte order
    mark, as spreadsheet exports write, is not part of the header.

    As with ``csv.DictReader``, blank lines are skipped, a repeated column
    name resolves to its last occurrence and a missing cell reads as None.
    A role that is not exactly ``subscriber`` or ``outsider`` is compared
    after ``.strip().lower()``. A subscriber's VOT passes when
    ``lo <= float(cell) <= hi`` on the support ``(lo, hi)``; NaN, inf and a
    parse failure fail it, and only then is the message built
    (:func:`_vot_error`). The first bad row in file order raises, located
    by ``reader.line_num``: the line on which the row ends. Bytes that are
    not UTF-8 are located by :func:`_undecodable_line`.
    """
    lo, hi = support
    nan = math.nan
    user_ids, vots = [], []
    add_user, add_vot = user_ids.append, vots.append
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or not {"user_id", "role", "vot"}.issubset(header):
                raise ValueError(
                    f"roster needs columns user_id, role, vot (got {header})"
                )
            column = {name: i for i, name in enumerate(header)}
            at = at_user, at_role, at_vot = column["user_id"], column["role"], column["vot"]
            for row in reader:
                try:
                    user, role, cell = row[at_user], row[at_role], row[at_vot]
                except IndexError:  # a blank line or a row cut short
                    if not row:
                        continue
                    user, role, cell = [row[i] if i < len(row) else None for i in at]
                if role != "subscriber" and role != "outsider":
                    key = role.strip().lower() if role is not None else ""
                    if key != "subscriber" and key != "outsider":
                        raise ValueError(f"line {reader.line_num}: unknown role {role!r}")
                    role = key
                if role == "outsider":
                    add_user(user)
                    add_vot(nan)
                    continue
                try:
                    vot = float(cell)
                except (TypeError, ValueError):
                    vot = nan
                if not lo <= vot <= hi:
                    _vot_error(cell, f"line {reader.line_num}: subscriber {user!r}", support)
                add_user(user)
                add_vot(vot)
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(f"line {_undecodable_line(path)}: not UTF-8 text") from None
    return user_ids, vots


def _undecodable_line(path) -> int:
    """The number of the first line of the file at ``path`` that is not
    UTF-8 text, counting lines ended by LF, CR or CR LF as the csv reader
    does. A decode error's own position is relative to the chunk being
    decoded, so it cannot say where in the file the bad byte is."""
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    for number, line in enumerate(data.split(b"\n"), 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return number


def _vot_error(cell, where: str, support) -> NoReturn:
    """Raise the error, located by ``where``, for a subscriber's VOT cell
    that failed ``lo <= float(cell) <= hi``: a missing VOT first, then one
    that is not a finite number, then one outside the support."""
    if cell is None or not cell.strip():
        raise ValueError(f"{where} missing VOT")
    try:
        vot = float(cell)
    except ValueError:
        vot = math.nan
    if not math.isfinite(vot):
        raise ValueError(f"{where}: VOT {cell!r} is not a finite number")
    try:
        check_declared_vot(support, vot)
    except SchemeError as exc:
        raise SchemeError(f"{where}: {exc}") from None


# -- argument parsing --------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing reads it but never changes it, and each call to
    ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="pathpay",
        description="Charge-and-subsidy path guidance for a single O-D network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, vot: bool):
        p.add_argument("--network", required=True, help="network JSON file")
        if vot:
            p.add_argument("--vot", required=True, help="VOT distribution JSON file")
            p.add_argument(
                "--classes", type=int, default=None, help="override VOT class count"
            )
        p.add_argument(
            "--tol", type=float, default=DEFAULT_TOL, help="solver relative gap"
        )
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("equilibria", help="UE and SO link flows and times")
    common(p, vot=False)
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("scheme", help="full pipeline plus verification")
    common(p, vot=True)
    p.set_defaults(func=cmd_scheme)

    p = sub.add_parser("improvement", help="per-VOT cost comparison CSV")
    common(p, vot=True)
    p.add_argument("--grid", type=int, default=DEFAULT_REPORT_GRID, help="VOT grid size")
    p.set_defaults(func=cmd_improvement)

    p = sub.add_parser("assign", help="guidance for a user roster CSV")
    common(p, vot=True)
    p.add_argument("--roster", required=True, help="CSV with user_id, role, vot")
    p.add_argument("--seed", type=int, default=0, help="outsider sampling seed")
    p.set_defaults(func=cmd_assign)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_tol(args.tol, "--tol")  # every subcommand solves; none starts on a bad tol
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
