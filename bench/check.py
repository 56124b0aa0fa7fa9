"""Checks of the program's outputs against the closed form in oracle.py.

Each check returns None when the output is right, else a one-line reason.
Program values are read by duck typing (a Fraction, a float, or an object
with rational coefficients q0..q3 of 1, i, sqrt2, i*sqrt2), so this module
imports nothing from hardysim either.
"""

from __future__ import annotations

import csv
import json
import re
from fractions import Fraction

import oracle

ZERO = oracle.r2(0)
ONE = oracle.r2(1)


def as_r2(value):
    """A real exact program value as an (a, b) pair, or None if it is not."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return oracle.r2(value)
    coeffs = [getattr(value, f"q{n}", None) for n in range(4)]
    if None in coeffs or coeffs[1] or coeffs[3]:
        return None
    return (Fraction(coeffs[0]), Fraction(coeffs[2]))


def parse_r2(text: str):
    """Parse the program's exact form, e.g. '17/144 + -1/12*r2'."""
    a = b = Fraction(0)
    text = text.strip()
    if text == "0":
        return (a, b)
    for term in text.split(" + "):
        m = re.fullmatch(r"(-?\d+(?:/\d+)?)(\*r2)?", term.strip())
        if m is None:
            return None
        if m.group(2):
            b += Fraction(m.group(1))
        else:
            a += Fraction(m.group(1))
    return (a, b)


def _r2_sum(values):
    total = ZERO
    for v in values:
        total = oracle.r2_add(total, v)
    return total


def check_table(table, layout: str, p, exact: bool):
    """In-process OutcomeTable (unconditional) against the closed form."""
    if getattr(table, "config", None) != layout:
        return f"table labelled {getattr(table, 'config', None)!r}, expected {layout}"
    if getattr(table, "conditional", True):
        return "run_scenario returned a conditional table"
    rows = table.rows
    if set(rows) != set(oracle.CELLS):
        return f"table cells {sorted(rows)}"
    if exact:
        want_rows, want_gamma = oracle.table_exact(layout, p)
        got = {cell: as_r2(rows[cell]) for cell in oracle.CELLS}
        gamma = as_r2(table.gamma_prob)
        if gamma is None or None in got.values():
            return "exact table holds a non-real or non-exact value"
        if _r2_sum(list(got.values()) + [gamma]) != ONE:
            return "rows plus gamma do not sum to 1"
        if gamma != oracle.r2(Fraction(p) / 4):
            return f"gamma {gamma} != p/4"
        for cell in oracle.CELLS:
            if got[cell] != want_rows[cell]:
                return f"{layout} {cell}: {got[cell]} != {want_rows[cell]}"
        return None
    want_rows, want_gamma = oracle.table_float(layout, float(p))
    got = {cell: rows[cell] for cell in oracle.CELLS}
    gamma = table.gamma_prob
    tol = oracle.FLOAT_TOL
    if not all(isinstance(v, float) for v in list(got.values()) + [gamma]):
        return "float table holds a non-float value"
    if abs(sum(got.values()) + gamma - 1.0) > tol:
        return "rows plus gamma do not sum to 1"
    if abs(gamma - float(p) / 4) > tol:
        return f"gamma {gamma} != p/4"
    for cell in oracle.CELLS:
        if abs(got[cell] - want_rows[cell]) > tol:
            return f"{layout} {cell}: {got[cell]!r} != {want_rows[cell]!r}"
    return None


# ---------------------------------------------------------------------------
# CLI output.
# ---------------------------------------------------------------------------

def _float_matches(text: str, exact) -> bool:
    """The 12-significant-digit column agrees with the exact value."""
    try:
        got = float(text)
    except ValueError:
        return False
    want = oracle.r2_float(exact)
    return abs(got - want) <= 1e-11 * abs(want) + 1e-15


def _parse_rows(lines):
    """'  c,d | exact | float' lines -> {(dp, dm) or 'gamma': (exact, float)}."""
    out = {}
    for line in lines:
        parts = line.strip().split(" | ")
        if len(parts) != 3:
            return None
        key = "gamma" if parts[0] == "gamma" else tuple(parts[0].split(","))
        out[key] = (parts[1], parts[2])
    return out


def _compare_rows(parsed, want_rows, want_gamma=None):
    if parsed is None:
        return "malformed table rows"
    expect = dict(want_rows)
    if want_gamma is not None:
        expect["gamma"] = want_gamma
    if set(parsed) != set(expect):
        return f"table rows {sorted(map(str, parsed))}"
    for key, want in expect.items():
        exact_text, float_text = parsed[key]
        if parse_r2(exact_text) != want:
            return f"row {key}: {exact_text} != {want}"
        if not _float_matches(float_text, want):
            return f"row {key}: float column {float_text}"
    return None


def check_cli_table(stdout: str):
    lines = stdout.splitlines()
    for layout in oracle.LAYOUTS:
        head = [i for i, ln in enumerate(lines) if ln.startswith(f"config {layout} ")]
        if len(head) != 1:
            return f"table: no single block for {layout}"
        want = oracle.conditioned_exact(*oracle.table_exact(layout, 1))
        problem = _compare_rows(_parse_rows(lines[head[0] + 1: head[0] + 5]), want)
        if problem:
            return f"table {layout}: {problem}"
    chain = oracle.hardy_chain()
    expect = {
        "P(c+,c-|out,out)": f"{chain['P(c+,c-|out,out)']}",
        "P(d+,d-|in,out)": f"{chain['P(d+,d-|in,out)']}",
        "P(d+,d-|out,in)": f"{chain['P(d+,d-|out,in)']}",
        "P(d+,d-|in,in)": (f"{chain['P(d+,d-|in,in) cond']} (cond), "
                           f"{chain['P(d+,d-|in,in) uncond']} (uncond)"),
        "gamma probability": f"{chain['gamma']}",
    }
    for name, value in expect.items():
        if f"{name} = {value}" not in lines:
            return f"table: Hardy chain line for {name} is not '{value}'"
    return None


_STRATEGY = re.compile(r"\s*a\(in\)=([cd]) a\(out\)=([cd]) b\(in\)=([cd]) "
                       r"b\(out\)=([cd])\s+(survives|ELIMINATED\b.*)")


def check_cli_lhv(stdout: str):
    fates, contradiction = oracle.lhv_enumeration()
    got = []
    for line in stdout.splitlines():
        m = _STRATEGY.fullmatch(line)
        if m:
            got.append((m.groups()[:4], m.group(5) == "survives"))
    if got != fates:
        return "lhv-audit: strategy fates differ from the 16-strategy enumeration"
    survivors = sum(alive for _, alive in fates)
    if f"surviving strategies: {survivors}" not in stdout.splitlines():
        return "lhv-audit: surviving count"
    verdict = "CONTRADICTION" if contradiction else "satisfiable"
    if not any(ln.startswith(f"verdict: {verdict}") for ln in stdout.splitlines()):
        return f"lhv-audit: verdict is not {verdict}"
    return None


def check_cli_hom(stdout: str):
    coincidence, distinguishable = oracle.hom_probabilities()
    lines = stdout.splitlines()
    if f"P(coincidence) = {coincidence}" not in lines:
        return "hom: coincidence probability"
    if f"P(coincidence, distinguishable particles) = {distinguishable}" not in lines:
        return "hom: distinguishable coincidence probability"
    return None


def _compare_records(records, layout, cond, rows, gamma):
    want = [(layout, dp, dm, cond[(dp, dm)], "true") for dp, dm in oracle.CELLS]
    want += [(layout, dp, dm, rows[(dp, dm)], "false") for dp, dm in oracle.CELLS]
    want.append((layout, "gamma", "gamma", gamma, "false"))
    if len(records) != len(want):
        return f"{len(records)} records, expected {len(want)}"
    for rec, (config, dp, dm, value, conditional) in zip(records, want):
        key = (rec.get("config"), rec.get("detector_plus"),
               rec.get("detector_minus"), rec.get("conditional"))
        if key != (config, dp, dm, conditional):
            return f"record {key}, expected {(config, dp, dm, conditional)}"
        if parse_r2(rec.get("prob_exact", "")) != value:
            return f"record {key}: {rec.get('prob_exact')} != {value}"
        if not _float_matches(rec.get("prob_float", ""), value):
            return f"record {key}: float column {rec.get('prob_float')}"
    return None


def check_cli_run(stdout: str, layout: str, p, csv_path, json_path):
    """`run --config` output: stdout tables plus the CSV and JSON exports."""
    rows, gamma = oracle.table_exact(layout, p)
    cond = oracle.conditioned_exact(rows, gamma)
    lines = stdout.splitlines()
    if len(lines) != 11 or not lines[0].startswith(f"config {layout} "):
        return f"run: expected an 11-line {layout} report, got {lines[:1]}"
    if lines[5] != "unconditional":
        return "run: no unconditional block"
    problem = (_compare_rows(_parse_rows(lines[1:5]), cond)
               or _compare_rows(_parse_rows(lines[6:11]), rows, gamma))
    if problem:
        return f"run stdout: {problem}"
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            csv_records = list(csv.DictReader(fh))
        with open(json_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"run export unreadable: {exc}"
    if payload.get("config") != layout:
        return f"run json config {payload.get('config')!r}, expected {layout}"
    if payload.get("rows") != csv_records:
        return "run: CSV and JSON exports differ"
    problem = _compare_records(csv_records, layout, cond, rows, gamma)
    return f"run export: {problem}" if problem else None
