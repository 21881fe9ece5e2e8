"""One traced command line: import the CLI, wrap the layers, run ``main``.

    python3 perfbench/cli_child.py [weylbundles arguments ...]

Prints one JSON object: the exit code and output of ``main``, the seconds
the import of ``weylbundles.cli`` took in this fresh interpreter, and the
spans and counters of the call.
"""
import io
import json
import sys
from contextlib import redirect_stdout
from time import perf_counter

if __name__ == "__main__":
    start = perf_counter()
    import weylbundles.cli as cli

    import_s = perf_counter() - start

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(sys.argv[1:])
    print(json.dumps({"code": code, "stdout": out.getvalue(), "import_s": import_s,
                      "trace": tracer.export()}))
