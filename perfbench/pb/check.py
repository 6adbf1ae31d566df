"""Checking the program's outputs against references from a known commit.

* ``compare``: the stdout table, cell by cell.  A reference maps every
  case id to its row, ``{"anduril": "1", "random": "20", ...}``.
* ``reproduce``: the reproduction script (as JSON) and the round count
  of every case, plus, where the repository's signature baselines cover
  the case, the script and rounds recorded there.
"""

from __future__ import annotations

import json
import re

_REPRODUCED = re.compile(r"^reproduced in (\d+) rounds", re.MULTILINE)


def parse_compare_table(stdout: str) -> dict[str, dict[str, str]]:
    """``{case_id: {column: cell}}`` from a multi-case ``compare`` table."""
    header = None
    rows: dict[str, dict[str, str]] = {}
    for line in stdout.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) < 2:
            continue
        if cells[0] == "case":
            header = cells
            continue
        if header is None or set(line) <= {"-", "+"}:
            continue
        case_id = cells[0].split(" ", 1)[0]
        rows[case_id] = dict(zip(header[1:], cells[1:]))
    return rows


def check_compare(table: dict, reference: dict, case_ids) -> dict:
    """``{(case_id, column): message}`` for every cell of ``case_ids``
    that differs from the reference or is missing."""
    problems = {}
    for case_id in case_ids:
        expected = reference.get(case_id)
        if expected is None:
            problems[(case_id, "*")] = f"{case_id}: no reference row"
            continue
        got = table.get(case_id, {})
        for column, cell in expected.items():
            if got.get(column) != cell:
                problems[(case_id, column)] = (
                    f"{case_id}/{column}: got {got.get(column)!r}, "
                    f"expected {cell!r}"
                )
    return problems


def parse_reproduce(stdout: str) -> tuple[int, dict] | None:
    """``(rounds, script)`` from ``reproduce`` stdout, or ``None``."""
    match = _REPRODUCED.search(stdout)
    if match is None:
        return None
    rest = stdout[match.end():]
    start = rest.find("{")
    if start < 0:
        return None
    try:
        script, _ = json.JSONDecoder().raw_decode(rest[start:])
    except ValueError:
        return None
    return int(match.group(1)), script


def check_reproduce(case_id: str, stdout: str, reference: dict,
                    signatures: dict) -> list[str]:
    parsed = parse_reproduce(stdout)
    if parsed is None:
        return [f"{case_id}: no reproduction in the output"]
    rounds, script = parsed
    problems = []
    expected = reference.get(case_id)
    if expected is None:
        problems.append(f"{case_id}: no reference")
    else:
        if rounds != expected["rounds"]:
            problems.append(
                f"{case_id}: {rounds} rounds, expected {expected['rounds']}"
            )
        if script != expected["script"]:
            problems.append(f"{case_id}: script differs from the reference")
    baseline = signatures.get(case_id)
    if baseline is not None:
        if rounds != baseline.get("rounds"):
            problems.append(
                f"{case_id}: {rounds} rounds, signature baseline has "
                f"{baseline.get('rounds')}"
            )
        if script != json.loads(baseline.get("script", "null")):
            problems.append(
                f"{case_id}: script differs from the signature baseline"
            )
    return problems
