"""Command-line front end: scenario runs, summary tables, LHV audit, HOM demo.

Exit codes: 0 success; 2 usage errors and ConfigError: an unreadable or
malformed config, unknown or doubled fields, oversized reaction-probability
text, unwritable exports and an unwritable stdout here (help text included),
and any field value ScenarioConfig refuses;
3 any other SimulationError (e.g. reaction probability outside [0, 1]).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import hardy
from .amplitude import EXACT
from .errors import ConfigError, SimulationError, echo

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3

# A reaction probability given as text may be at most P_TEXT_MAX_CHARS long,
# with a decimal exponent of at most P_EXPONENT_MAX in size (beyond any
# double's range). Longer text or larger exponents would make Fraction build,
# and the output print, integers of unbounded size. The exponent pattern is
# Fraction's own, underscores between digits included.
P_TEXT_MAX_CHARS = 100
P_EXPONENT_MAX = 400
USAGE_MAX_CHARS = 200
_EXPONENT = re.compile(r"e([+-]?\d+(?:_\d+)*)", re.IGNORECASE)


def _table_records(table: hardy.OutcomeTable):
    """One record per sorted cell, then the gamma record if the table is
    unconditional. Each probability is given as exact text ("" on the float
    backend) and as a 12-significant-digit float."""
    cells = [(cell, table.rows[cell]) for cell in sorted(table.rows)]
    if not table.conditional:
        cells.append((("gamma", "gamma"), table.gamma_prob))
    return [{"config": table.config, "detector_plus": dp, "detector_minus": dm,
             "prob_exact": "" if isinstance(value, float) else str(value),
             "prob_float": f"{float(value):.12g}",
             "conditional": str(table.conditional).lower()}
            for (dp, dm), value in cells]


def _table_lines(records, title: str):
    lines = [title]
    for rec in records:
        cell = rec["detector_plus"]
        if cell != "gamma":
            cell += "," + rec["detector_minus"]
        lines.append(f"  {cell} | {rec['prob_exact'] or '-'} | {rec['prob_float']}")
    return lines


CSV_FIELDS = ["config", "detector_plus", "detector_minus",
              "prob_exact", "prob_float", "conditional"]


def _cannot(action: str, path: str, exc: Exception) -> ConfigError:
    """The error for a path that cannot be used, quoted by echo. An OSError
    gives only its strerror, as its str() repeats the file names uncut."""
    return ConfigError(f"cannot {action} {echo(path)}: "
                       f"{getattr(exc, 'strerror', None) or exc}")


def _write_atomic(path: str, write):
    """Call write(fh) on a temp file beside path's real target, then rename
    it over that target, so a failed write leaves no partial file and a
    symlink stays a link. A pipe, a device or a target with the temp file's
    name is written in place. OSError becomes ConfigError."""
    target = os.path.realpath(path)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    tmp = target if in_place else os.path.join(
        os.path.dirname(target), f".hardysim-{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            write(fh)
        if tmp != target:
            os.replace(tmp, target)
    except OSError as exc:
        raise _cannot("write", path, exc) from exc
    finally:
        if tmp != target and os.path.exists(tmp):
            os.unlink(tmp)


def _write_csv(path: str, records):
    import csv

    def write(fh):
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(records)
    _write_atomic(path, write)


def _write_json(path: str, payload):
    def write(fh):
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    _write_atomic(path, write)


def _check_p_text(text: str):
    """Reject p text past P_TEXT_MAX_CHARS or P_EXPONENT_MAX before Fraction."""
    if len(text) > P_TEXT_MAX_CHARS:
        raise ConfigError(f"reaction probability text longer than "
                          f"{P_TEXT_MAX_CHARS} characters")
    match = _EXPONENT.search(text)
    if match and abs(int(match[1])) > P_EXPONENT_MAX:
        raise ConfigError(f"reaction probability exponent {match[1]} beyond "
                          f"+-{P_EXPONENT_MAX}")


class _NumberText(str):
    """A config's JSON number with a fraction or exponent, kept as written:
    p reads it as p text, not through a double, and errors quote it so."""

    __repr__ = str.__str__


def _fields_once(pairs):
    """A JSON object's fields as a dict; a field named twice is refused."""
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise ConfigError(f"config names field {echo(key)} twice")
        fields[key] = value
    return fields


CONFIG_FIELDS = ("bs2_plus", "bs2_minus", "p", "reaction_probability", "backend")


def _load_config(path: str) -> hardy.ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_NumberText,
                            object_pairs_hook=_fields_once)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integer
        # literals beyond the int string limit
        raise _cannot("read config", path, exc) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in raw:
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"unknown config field {echo(key)}")
    if "p" in raw and "reaction_probability" in raw:
        raise ConfigError("config gives both p and reaction_probability")
    p = raw.get("reaction_probability", raw.get("p", 1))
    if isinstance(p, str):
        _check_p_text(p)
        try:
            p = Fraction(p)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad reaction probability {echo(p)}") from exc
    return hardy.ScenarioConfig(raw.get("bs2_plus"), raw.get("bs2_minus"), p,
                                raw.get("backend", EXACT))


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    _, table = hardy.run_scenario(cfg)
    cond, uncond = _table_records(table.conditioned()), _table_records(table)
    title = (f"config {cfg.key}  p={cfg.reaction_prob}  "
             f"backend={cfg.backend}  (conditional on no gamma)")
    print("\n".join(_table_lines(cond, title)
                    + _table_lines(uncond, "unconditional")))
    records = cond + uncond
    if args.csv is not None:
        _write_csv(args.csv, records)
    if args.json is not None:
        _write_json(args.json, {
            "config": cfg.key,
            "backend": cfg.backend,
            "reaction_probability": str(cfg.reaction_prob),
            "rows": records,
        })
    return EXIT_OK


def cmd_table(args) -> int:
    from . import lhv
    tables = hardy.full_table()
    for (sp, sm), key in lhv.KEY.items():
        title = f"config {key} (BS2+ {sp}, BS2- {sm}), p=1, conditional"
        print("\n".join(_table_lines(_table_records(tables[key]), title)))
    cs = lhv.quantum_constraints(tables)
    print("Hardy chain:")
    for (sp, sm), (dp, dm) in cs.zero_events:
        print(f"P({dp}+,{dm}-|{sp},{sm}) = 0")
    (sp, sm), (dp, dm), prob = cs.positive_event
    gamma = tables[lhv.KEY[sp, sm]].gamma_prob
    print(f"P({dp}+,{dm}-|{sp},{sm}) = {prob} (cond), "
          f"{prob * (1 - gamma)} (uncond)")
    print(f"gamma probability = {gamma}")
    return EXIT_OK


def cmd_lhv_audit(args) -> int:
    from . import lhv
    print(lhv.audit_report(lhv.quantum_constraints(hardy.full_table())))
    return EXIT_OK


def cmd_hom(args) -> int:
    from . import bosonic
    prob = bosonic.hom_coincidence_probability()
    dist = bosonic.distinguishable_coincidence_probability()
    print("Hong-Ou-Mandel: |1,1> through one 50/50 beam splitter")
    print(f"P(coincidence) = {prob}")
    print(f"P(coincidence, distinguishable particles) = {dist}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, but help text that stdout cannot take raises OSError
    instead of being dropped with exit 0, and a usage error raises
    ConfigError: one line, since repr() escapes every line break in the
    arguments argparse quotes raw, cut to USAGE_MAX_CHARS characters."""

    def print_help(self, file=None):
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)

    def error(self, message):
        text = repr(message)[1:-1]
        if len(text) > USAGE_MAX_CHARS:
            text = text[:USAGE_MAX_CHARS] + "..."
        raise ConfigError(f"{text} (see {self.prog} --help)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hardysim",
        description="Exact simulator of the two-interferometer annihilation "
                    "thought experiment")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a JSON config")
    p_run.add_argument("--config", required=True, help="path to JSON config")
    p_run.add_argument("--csv", help="also write the table as CSV")
    p_run.add_argument("--json", help="also write the table as JSON")
    p_run.set_defaults(func=cmd_run)

    p_table = sub.add_parser("table", help="all four layouts at p=1")
    p_table.set_defaults(func=cmd_table)

    p_lhv = sub.add_parser("lhv-audit", help="local-hidden-variable audit")
    p_lhv.set_defaults(func=cmd_lhv_audit)

    p_hom = sub.add_parser("hom", help="Hong-Ou-Mandel bunching demo")
    p_hom.set_defaults(func=cmd_hom)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            status = args.func(args)
        except SimulationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_DOMAIN
        sys.stdout.flush()
        return status
    except OSError as exc:
        # send what stdout still buffers to devnull, or the exit flush fails
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
