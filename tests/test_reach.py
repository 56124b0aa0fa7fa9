"""Every function in src/ is reached by a CLI command, or UNREACHED names it
with a reason.

`trace_cli.py` runs COMMANDS in a fresh interpreter under sys.settrace, so
no earlier test's warm functools.cache hides a call and calls made at
import count. A `def` that none of them enters must be a key of UNREACHED;
a key that is entered, or names no def, is stale. Either way the test
fails and names the function. Functions are keyed as "module:qualname",
read from each file's AST, and matched to code objects by file, first line
(that of the first decorator, if any) and name; lambdas are not keyed.
"""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
CHILD = pathlib.Path(__file__).with_name("trace_cli.py")

LAYOUT = {"bs2_plus": True, "bs2_minus": True}

# (CLI arguments, config fields for run or None, exit code); run also
# exports CSV and JSON. Error configs stay: they are what users reach.
COMMANDS = [
    (["table"], None, 0),
    (["lhv-audit"], None, 0),
    (["hom"], None, 0),
    (["--help"], None, 0),
    (["table", "extra"], None, 2),
    (["run", "--config", "missing.json"], None, 2),
    (["run"], dict(bs2_plus=False, bs2_minus=False, p=0), 0),
    (["run"], dict(bs2_plus=False, bs2_minus=False, p="1/2"), 0),
    (["run"], dict(bs2_plus=True, bs2_minus=False, p="1/2"), 0),
    (["run"], dict(LAYOUT, p=1), 0),
    (["run"], dict(LAYOUT, p=1e-300, backend="float"), 0),
    (["run"], dict(bs2_plus=False, bs2_minus=True, p=0.5, backend="float"), 0),
    (["run"], dict(bs2_plus=False, bs2_minus=False, p=1, backend="float"), 0),
    (["run"], dict(LAYOUT, p="3/4"), 0),
    (["run"], dict(LAYOUT, p="1/3"), 3),
    (["run"], dict(LAYOUT, p="1e-400"), 3),
    (["run"], dict(LAYOUT, p=2), 3),
    (["run"], dict(bs2_plus="true", bs2_minus=True), 2),
    (["run"], dict(LAYOUT, backend="symbolic"), 2),
]

ARITHMETIC = "public API: ExactScalar arithmetic, which README documents"
SHOWN = "for people reading output"

UNREACHED = {
    "hardysim.amplitude:ExactScalar.__neg__": ARITHMETIC,
    "hardysim.amplitude:ExactScalar.__sub__": ARITHMETIC,
    "hardysim.amplitude:ExactScalar.__rsub__": ARITHMETIC,
    "hardysim.amplitude:ExactScalar.__hash__":
        "public API: equal scalars, ints and Fractions hash alike as dict keys",
    "hardysim.amplitude:ExactScalar.__setattr__":
        "public API: README says scalars are immutable; this refuses a write",
    "hardysim.amplitude:ExactScalar.__delattr__":
        "public API: README says scalars are immutable; this refuses a delete",
    "hardysim.amplitude:ExactScalar.from_string":
        "public API: README names it to parse an export's exact column",
    "hardysim.amplitude:ExactScalar.__reduce__":
        "copy/pickle: __setattr__ blocks the default slot restore",
    "hardysim.amplitude:ExactScalar.__repr__": SHOWN,
    "hardysim.hardy:OutcomeTable.__eq__":
        "public API: an exported OutcomeTable compares by value, not identity",
    "hardysim.hardy:OutcomeTable.__repr__": SHOWN,
    "hardysim.measurement:AnnihilationChannel.pass_map":
        "public API: the pass Kraus element; the pipeline scales by sqrt(1-p)",
    "hardysim.measurement:AnnihilationChannel.pass_map.<locals>.ket_map":
        "the pass element's ket map, which only pass_map returns",
    "hardysim.measurement:AnnihilationChannel.absorb_map":
        "public API: the absorb Kraus element; apply_channel needs only p",
    "hardysim.measurement:AnnihilationChannel.absorb_map.<locals>.ket_map":
        "the absorb element's ket map, which only absorb_map returns",
    "hardysim.optics:relabel_ket_map":
        "public API: the removed splitter on one arm; the layouts' passes fold it in at import",
    "hardysim.state:PathLabel.__str__": f"{SHOWN}: kets and error messages",
    "hardysim.state:BasisKet.__str__": f"{SHOWN}: StateVector.dump's lines",
    "hardysim.state:BasisKet.sort_key": f"{SHOWN}: StateVector.dump's order",
    "hardysim.state:StateVector.dump": SHOWN,
    "hardysim.state:StateVector.__repr__": SHOWN,
    "hardysim.state:DensityMatrix.purity":
        "public API: README's state bullet names purity",
    "hardysim.state:DensityMatrix.__repr__": SHOWN,
}


def defs():
    """{(file, first line, name): "module:qualname"} for every def under
    src/hardysim."""
    found = {}

    def walk(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = (child.decorator_list or [child])[0].lineno
                key = (str(path), line, child.name)
                assert key not in found, key
                found[key] = f"{module}:{prefix}{child.name}"
                walk(child, module, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, f"{prefix}{child.name}.")
            else:
                walk(child, module, path, prefix)

    for path in sorted((SRC / "hardysim").glob("*.py")):
        module = "hardysim" if path.stem == "__init__" else f"hardysim.{path.stem}"
        walk(ast.parse(path.read_text(encoding="utf-8")), module, path, "")
    return found


def trace(tmp_path):
    """The exit code of each of COMMANDS and the set of def names that
    none of them entered."""
    argvs = []
    for i, (args, config, _) in enumerate(COMMANDS):
        if config is not None:
            (tmp_path / f"{i}.json").write_text(json.dumps(config))
            args = args + ["--config", f"{i}.json",
                           "--csv", f"{i}.csv", "--json", f"{i}.out.json"]
        argvs.append(args)
    out = subprocess.run([sys.executable, str(CHILD), str(SRC), json.dumps(argvs)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    entered = {tuple(key) for key in report["entered"]}
    return report["codes"], {name for key, name in defs().items()
                             if key not in entered}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return trace(tmp_path_factory.mktemp("reach"))


def test_commands_exit_as_expected(traced):
    codes, _ = traced
    assert codes == [code for _, _, code in COMMANDS]


def test_every_unreached_function_is_named_with_a_reason(traced):
    _, unreached = traced
    missing = sorted(unreached - UNREACHED.keys())
    assert not missing, f"reached by no command, not in UNREACHED: {missing}"


def test_every_named_function_is_unreached(traced):
    _, unreached = traced
    stale = sorted(UNREACHED.keys() - unreached)
    assert not stale, f"in UNREACHED, but reached or not a def: {stale}"


def test_each_reason_is_one_line():
    assert all(reason and "\n" not in reason for reason in UNREACHED.values())
