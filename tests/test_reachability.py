"""Every function and method of `mckay` runs under some command, or is
listed in NEVER_RUN with the reason it stays.

The commands run in a fresh interpreter under `sys.setprofile`, so that no
cache an earlier test filled (the fields, the parser) hides a call: every
corpus command under both `--choice`s, and inputs that reach the error
paths.  A function that only tests call fails the test until it leaves
the package or joins the list.
"""

import contextlib
import importlib
import io
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]

NEVER_RUN = {
    "age.FractionalExpression.__hash__": "__hash__: a value record hashes as it compares",
    "age._unpaired_class": "error-message helper: names the class that g -> g^-1 "
                           "fails to pair, for internal errors",
    "cyclo.CycNum.__add__": "documented exact field arithmetic; the per-scalar "
                            "test oracles are built on it",
    "cyclo.CycNum.__eq__": "documented exact field arithmetic; the per-scalar "
                           "test oracles are built on it",
    "cyclo.CycNum.__hash__": "__hash__: an element hashes as it compares; the "
                             "closure dedupes integer rows, not CycNum",
    "cyclo.CycNum.__mul__": "documented exact field arithmetic; the per-scalar "
                            "test oracles are built on it",
    "cyclo.CycNum.__neg__": "documented exact field arithmetic; the per-scalar "
                            "test oracles are built on it",
    "cyclo.CycNum.__repr__": "__repr__",
    "cyclo.CycNum.__sub__": "documented exact field arithmetic; the per-scalar "
                            "test oracles are built on it",
    "cyclo.CycNum._operand": "documented exact field arithmetic; the per-scalar "
                             "test oracles are built on it",
    "cyclo.CycNum.as_rational": "documented exact field arithmetic; the per-scalar "
                                "test oracles are built on it",
    "cyclo.CycNum.embed": "documented exact field arithmetic; the per-scalar "
                          "test oracles are built on it",
    "cyclo.CyclotomicField.__repr__": "__repr__, also the field names of a "
                                      "field-mismatch error",
    "cyclo.CyclotomicField.from_rational": "documented exact field arithmetic; "
                                           "the per-scalar test oracles are "
                                           "built on it",
    "matgroup.ConjugacyClass.__repr__": "__repr__",
    "matgroup.CyclicSubgroup.__len__": "__len__",
    "matgroup.MatrixGroup.__len__": "__len__",
    "record.Record.__repr__": "__repr__ of every record, shown in README",
    "record.ValueRecord.__eq__": "documented API: README says which records "
                                 "compare by value",
    "toric.OverLattice.__repr__": "__repr__",
    "toric.discrepancy": "documented API: README gives it as the paper's "
                         "discrepancy formula",
}

MATRIX_2 = "format matrix\ndimension 2\ncyclotomic_order 4\ngenerator A\n"

# (file name, its text or None for a corpus file, command, exit code)
ERROR_INPUTS = [
    ("malformed.grp", MATRIX_2 + "z +, 0\n0, 1\n", ["info"], 2),
    ("singular.grp", MATRIX_2 + "1, 0\n0, 0\n", ["info"], 3),
    ("singular.grp", MATRIX_2 + "1, 0\n0, 0\n", ["info", "--choice", "inverse"], 3),
    ("dihedral.grp", "format matrix\ndimension 2\ncyclotomic_order 1\n"
     "generator A\n0, 1\n1, 0\ngenerator B\n0, 2\n1/2, 0\n", ["info"], 3),
    ("huge_field.grp", "format matrix\ndimension 1\ncyclotomic_order 100000\n"
     "generator A\nz\n", ["info"], 4),
    ("bd8.grp", None, ["info", "--max-order", "5"], 4),
    ("cyclic_7_124.grp", None, ["ram", "--class", "1", "--probe", "1000"], 4),
    ("dim2.grp", "format diagonal\ndimension 2\ngenerator 5 : 1 4\n",
     ["toric", "resolve"], 0),
]


def corpus_commands():
    """Every command the benchmark's corpus runs on each groups/ file, and
    `diagram --format json`, under both `--choice`s."""
    for path in sorted((ROOT / "groups").glob("*.grp")):
        commands = [["info"], ["classes"], ["betti"], ["ram", "--class", "1"]]
        if "format diagonal" in path.read_text():
            commands += [["toric", action]
                         for action in ("juniors", "box", "resolve", "check")]
        else:
            commands += [["diagram"], ["diagram", "--format", "json"]]
        for command in commands:
            for choice in ("standard", "inverse"):
                yield [*command, str(path), "--choice", choice]


def package_functions():
    """code object -> "module.qualname" for every function and method
    defined in a module of `mckay`, properties and cached functions too."""
    import mckay

    def functions(obj):
        obj = getattr(obj, "__wrapped__", obj)  # lru_cache
        if isinstance(obj, property):
            return [f for f in (obj.fget, obj.fset, obj.fdel) if f]
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        return [obj] if isinstance(obj, types.FunctionType) else []

    names = {}
    for info in pkgutil.iter_modules(mckay.__path__):
        module = importlib.import_module(f"mckay.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for member in members:
                for f in functions(member):
                    names[f.__code__] = f"{info.name}.{f.__qualname__}"
    return names


def probe(directory):
    """Run the commands under the profiler; return the exit codes of the
    error inputs and the sorted names of the functions that never ran."""
    from mckay.cli import main

    runs = [(argv, None) for argv in corpus_commands()]
    for name, text, command, code in ERROR_INPUTS:
        path = ROOT / "groups" / name if text is None else directory / name
        if text is not None:
            path.write_text(text)
        runs.append(([*command, str(path)], code))
    names, called = package_functions(), set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv, expected in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            if expected is not None:
                codes.append(code)
    finally:
        sys.setprofile(None)
    return codes, sorted(name for f_code, name in names.items() if f_code not in called)


def test_every_package_function_runs_under_a_command_or_is_listed(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    codes, never_run = json.loads(out)
    assert codes == [code for _, _, _, code in ERROR_INPUTS]
    assert never_run == sorted(NEVER_RUN)


if __name__ == "__main__":
    print(json.dumps(probe(pathlib.Path(sys.argv[1]))))
