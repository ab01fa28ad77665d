"""Compare workload outputs with the committed reference outputs.

One absolute tolerance applies to every numeric value, TOLERANCE = 1e-7:

* the oracle prints 8 decimals, so a change far below round-off can still
  flip its last printed digit by 1e-8; sweep CSVs carry 12 significant
  digits, a last digit of at most 1e-9 on values below 1000;
* it accepts the <= 4.9e-12 shift of delta_gamma_u that the exact Uhlmann
  holonomy brings, 4 orders of magnitude below it;
* it catches a wrong branch (a jump of 2 pi in an unwrapped column) and a
  wrong sign of any value with |x| > 5e-8.

Integer, status and empty cells must match exactly; every reference row has
status ``ok``.  A row fails when any of its cells does not match, or when it
is missing.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

TOLERANCE = 1e-7
_EXACT_COLUMNS = {"r", "steps", "status", "n_sites"}


class Comparison:
    """Rows compared, rows failed and the largest absolute deviation seen."""

    def __init__(self):
        self.rows = 0
        self.failed = 0
        self.max_abs_dev = 0.0
        self.notes = []

    def add(self, other):
        self.rows += other.rows
        self.failed += other.failed
        self.max_abs_dev = max(self.max_abs_dev, other.max_abs_dev)
        self.notes += other.notes

    def fail_all(self, rows, note):
        self.rows += rows
        self.failed += rows
        self.notes.append(note)


def _compare_rows(header, got_rows, ref_rows, result, label):
    result.rows += len(ref_rows)
    for i, ref in enumerate(ref_rows):
        got = got_rows[i] if i < len(got_rows) else None
        ok = got is not None and len(got) == len(ref)
        for col, g, r in zip(header, got or (), ref):
            if col in _EXACT_COLUMNS or r == "" or g == "":
                ok = ok and g == r
                continue
            try:
                dev = abs(float(g) - float(r))
            except ValueError:
                ok = False
                continue
            result.max_abs_dev = max(result.max_abs_dev, dev)
            ok = ok and dev <= TOLERANCE
        if not ok:
            result.failed += 1
            if len(result.notes) < 5:
                result.notes.append(f"{label} row {i + 1}: got {got}, want {ref}")
    if len(got_rows) > len(ref_rows):
        result.notes.append(f"{label}: {len(got_rows) - len(ref_rows)} extra rows")
        result.failed += len(got_rows) - len(ref_rows)
        result.rows += len(got_rows) - len(ref_rows)


def _split(text):
    """Header and data rows of a CSV text; '#' lines are set aside."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    if not lines:
        return [], [], comments
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]], comments


def compare_text(got_text, ref_text, label):
    """Compare a sweep CSV or an oracle listing with its reference."""
    result = Comparison()
    ref_header, ref_rows, ref_comments = _split(ref_text)
    header, rows, comments = _split(got_text)
    if header != ref_header:
        result.fail_all(len(ref_rows), f"{label}: header {header} != {ref_header}")
        return result
    _compare_rows(header, rows, ref_rows, result, label)
    # the oracle's closing line states whether the finite-size gap is monotone
    if ref_comments[-1:] and "monotone" in ref_comments[-1]:
        verdict = ref_comments[-1].rsplit("(", 1)[-1]
        if not comments or comments[-1].rsplit("(", 1)[-1] != verdict:
            result.failed = result.rows
            result.notes.append(f"{label}: trend line {comments[-1:]} != {verdict!r}")
    return result


def svg_problem(path, families):
    """None if path holds an SVG with one polyline per family, else why not."""
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return f"{path}: {exc}"
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if not root.tag.endswith("svg") or len(lines) != families:
        return f"{path}: {len(lines)} polylines, want {families}"
    return None
