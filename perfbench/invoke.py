"""Child process: import tfim_phases, then run one CLI invocation.

Usage: python3 perfbench/invoke.py RECORD.json [CLI ARGS ...]

With no CLI arguments it only imports the package (a set-up probe).  It
writes to RECORD.json the ``time.monotonic`` instants at which the import
finished and ``cli.main`` returned, its return code and the module path.
"""

import json
import sys
import time


def main():
    record_path, cli_args = sys.argv[1], sys.argv[2:]
    import tfim_phases
    import tfim_phases.cli as cli

    record = {"ready": time.monotonic(), "module": tfim_phases.__file__}
    if cli_args:
        start = time.monotonic()
        rc = cli.main(cli_args)
        record.update(start=start, done=time.monotonic(), rc=rc)
    sys.stdout.flush()
    with open(record_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
