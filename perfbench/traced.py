"""Child process: one CLI invocation with a span around every layer call.

Usage: python3 perfbench/traced.py RECORD.json SPANS.jsonl [CLI ARGS ...]

It works as invoke.py does, but before it calls ``tfim_phases.cli.main`` it
replaces the module attributes through which the program reaches each layer
with wrappers that record a span.  The program's code is not changed: each
module looks these names up in its own namespace at call time, so every
binding that the CLI's code paths use is listed in TARGETS.

Spans are kept in memory and written to SPANS.jsonl when ``cli.main``
returns, one JSON object per line: name, start, end (``time.perf_counter``
seconds), parent (line index of the enclosing span, or null) and point (the
index of the enclosing grid point, or null).  RECORD.json gets the same
record as from invoke.py, with ``start`` and ``done`` on the span clock and
the targets that the package no longer has under ``missing_targets``.
"""

import json
import sys
import time
from functools import wraps
from importlib import import_module

# (module of tfim_phases, attribute, span name)
TARGETS = (
    ("sweep", "compute_phases", "point"),
    ("phases", "correlators", "ising.correlators"),
    ("ising", "correlators", "ising.correlators"),
    ("ising", "toeplitz_element", "ising.toeplitz_element"),
    ("ising", "magnetization", "ising.magnetization"),
    ("ising", "exact_diag_correlators", "ising.exact_diag_correlators"),
    ("phases", "two_site_state", "states.two_site_state"),
    ("phases", "single_site_state", "states.single_site_state"),
    ("phases", "interferometric_phase", "phases.interferometric_phase"),
    ("phases", "uhlmann_phase", "phases.uhlmann_phase"),
    ("cli", "emit_csv", "sweep.emit_csv"),
    ("cli", "emit_svg", "sweep.emit_svg"),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, point index]."""

    def __init__(self):
        self.spans = []
        self.points = 0
        self._open = []

    def wrap(self, fn, name):
        @wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            if name == "point":
                point, self.points = self.points, self.points + 1
            else:
                point = None if parent is None else self.spans[parent][4]
            self._open.append(len(self.spans))
            record = [name, time.perf_counter(), None, parent, point]
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()

        return traced

    def install(self, targets):
        """Wrap every target the package has; returns those it lacks."""
        missing = []
        for module_name, attr, name in targets:
            module = import_module(f"tfim_phases.{module_name}")
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(getattr(module, attr), name))
            else:
                missing.append(f"{module_name}.{attr}")
        return missing

    def write(self, path):
        keys = ("name", "start", "end", "parent", "point")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def main():
    record_path, spans_path, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import tfim_phases
    import tfim_phases.cli as cli

    record = {"ready": time.monotonic(), "module": tfim_phases.__file__}
    tracer = Tracer()
    record["missing_targets"] = tracer.install(TARGETS)
    start = time.perf_counter()
    rc = cli.main(cli_args)
    record.update(start=start, done=time.perf_counter(), rc=rc)
    sys.stdout.flush()
    tracer.write(spans_path)
    with open(record_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
