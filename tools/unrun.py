"""Print every function of src/dpl that no command of the byte_oracle pipeline enters.

Runs the pipeline of ``tools/byte_oracle.py`` (gen-data, pretrain, train
and eval in seven training modes, ``dpl distort`` once per distortion kind
and ``dpl gen-data`` for the blur and darken tasks) in this process, each
run under OUT_DIR, with ``sys.setprofile`` noting the code of every Python
call.
Then prints ``<file>:<line> <qualname>`` for each function, method,
nested function and lambda defined in ``src/dpl`` whose code was never
entered, paths relative to the repo, the line being the one the function's
code starts at (its first decorator's, if it has one):

    python3 tools/unrun.py /tmp/unrun

What it lists is code that only tests, the benchmark's tracer, error and
interrupt paths, a setting the pipeline leaves at its default or a command
outside it (``show-config``) reach. Two lambdas that start on the same
line count as one. Only the standard library and dpl (with numpy) are
used; the run took 36 s where byte_oracle took 26 s, on a 2-core box.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "dpl"


def functions(path: Path) -> list[tuple[int, str]]:
    """(first line, qualname) of every function defined in one module."""
    found = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                decorators = getattr(child, "decorator_list", [])
                found.append((decorators[0].lineno if decorators else child.lineno, name))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return sorted(found)


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tools/unrun.py OUT_DIR")
    out_dir = Path(sys.argv[1])
    # one BLAS thread, set before numpy is first imported
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(PACKAGE.parent))
    import byte_oracle

    seen = set()

    def note(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(note)  # before dpl is imported, so import-time calls count
    try:
        from dpl.cli import main as dpl_main

        byte_oracle.run_pipeline(dpl_main, out_dir)
    finally:
        sys.setprofile(None)
    entered = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
               for code in seen}
    for path in sorted(PACKAGE.glob("*.py")):
        where = os.path.realpath(path)
        for line, qualname in functions(path):
            if (where, line, qualname.rpartition(".")[2]) not in entered:
                print(f"{path.relative_to(REPO).as_posix()}:{line} {qualname}")


if __name__ == "__main__":
    main()
