"""The library holds what the CLI computes: every function defined in the
package runs under some subcommand.

Every subcommand runs in this process under ``sys.setprofile``, and every
``def`` in the package source (nested ones and methods included) must have
been entered at least once.  A reference form that only tests call belongs
in ``tests/oracles.py``, not in the package.
"""

import ast
import json
import sys
from pathlib import Path

import calogero_ss
from calogero_ss.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from calogero_ss.wavefunction import _laplace_solutions_cached

PACKAGE = Path(calogero_ss.__file__).resolve().parent

# _sums._in_order is lsum only from Python 3.12 on (sum() before it)
VERSION_GATED = {("_sums.py", "_in_order")} if sys.version_info < (3, 12) \
    else set()


def defined_functions():
    """{(file name, first line): name} of every def in the package; the
    first line is that of the first decorator, as in co_firstlineno."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno
                                             for d in node.decorator_list])
                out[(str(path), first)] = node.name
    return out


def argvs(tmp):
    """(argv, expected exit) for every subcommand and option family."""
    configs = tmp / "configs.json"
    configs.write_text(json.dumps(
        {"configs": [[2.0, 0.1, -2.1], [3.0, 0.2, -3.2]]}))
    config = tmp / "config.json"
    config.write_text(json.dumps({"delta": 0.5, "log": True}))
    model = ("--nu-prime", "1", "--delta", "0.5")
    return [
        (["nu-prime", "--g", "2", "--delta", "0"], EXIT_OK),
        (["scan", "--n", "3", "--samples", "20", "--p-max", "10",
          "--seed", "7", "--out", str(tmp / "scan.csv")], EXIT_OK),
        (["coeffs", "--n", "2", *model, "--p", "1"], EXIT_OK),
        (["coeffs", "--n", "3", *model, "--p", "1", "--k", "3"], EXIT_OK),
        (["coeffs", "--n", "2", "--g", "0.5", "--delta", "0", "--p", "1"],
         EXIT_OK),
        (["sweep", "--n", "2", *model, "--param", "r-minus", "--from", "10",
          "--to", "1000", "--steps", "3", "--log",
          "--plot", str(tmp / "sweep.svg")], EXIT_CHECK_FAILED),
        (["sweep", "--n", "3", *model, "--param", "p", "--from", "0.5",
          "--to", "2", "--steps", "3"], EXIT_OK),
        (["residual", "--n", "3", *model, "--k", "3", "--p", "1.2"],
         EXIT_OK),
        (["residual", "--n", "3", *model, "--p", "1.2", "--tol", "1e-5",
          "--configs", str(configs)], EXIT_OK),
        (["polys", "--n", "3", "--k", "3", "--lambda", "7/10"], EXIT_OK),
        (["--config", str(config), "sweep", "--n", "2", "--nu-prime", "1",
          "--param", "p", "--from", "0.5", "--to", "2", "--steps", "2"],
         EXIT_OK),
        (["coeffs", "--n", "2", *model], EXIT_USAGE),
        (["polys", "--n", "3", "--k", "1"], EXIT_USAGE),
    ]


def test_every_function_is_reached(tmp_path, capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    cases = argvs(tmp_path)
    _laplace_solutions_cached.cache_clear()  # a warm cache skips the solve
    codes = []
    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in cases:
            codes.append(main(argv))
    finally:
        sys.setprofile(outer)
    capsys.readouterr()
    assert codes == [code for _, code in cases]

    defined = defined_functions()
    # a walk that found no def, or keyed them unlike code objects, would
    # pass with nothing reached
    assert (str(Path(main.__code__.co_filename).resolve()),
            main.__code__.co_firstlineno) in defined
    entered = {(str(Path(path).resolve()), line) for path, line in entered}
    unreached = sorted(
        f"{Path(path).name}:{line} {name}"
        for (path, line), name in defined.items()
        if (path, line) not in entered
        and (Path(path).name, name) not in VERSION_GATED)
    assert not unreached, "never called:\n" + "\n".join(unreached)
