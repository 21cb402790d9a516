"""Run one `tfmn` command in this process and print where its time went.

Stdlib only; the command itself needs what `tfmn` needs (click).

    python3 tools/stage_totals.py build --corpus corpus.txt --out-dir out

The arguments are those of `tfmn`. The command runs as `python -m tfmn.cli`
would run it, from this checkout's `src`, and writes and prints what it
always does. Then one JSON line follows on stdout: the command's arguments,
its exit code, its wall time in seconds from the call into the command to
its return (imports excluded), the package's stage record
(`tfmn.stage_times`, {stage: [seconds, items]}, forked workers' stages added
in) and the share of the wall time that the stages cover. Stage times of
forked workers overlap this process's, so on more than one usable CPU the
share can exceed 1; run under `taskset -c 0` to read it for one process.

The wall time never included the interpreter's teardown after the command:
the clock stops when `main.main` returns or raises, before Python exits. So
it shows neither the teardown that the program entry skips with `os._exit`
nor what skipping it saves; this script exits as Python does.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tfmn  # noqa: E402
import tfmn.cli  # noqa: E402


def main(argv: list[str]) -> int:
    start = perf_counter()
    try:
        tfmn.cli.main.main(args=argv, prog_name="tfmn")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    wall = perf_counter() - start
    covered = sum(seconds for seconds, _ in tfmn.stage_times.values())
    print(json.dumps({"args": argv, "exit_code": code, "wall_s": round(wall, 6),
                      "stages": {name: [round(seconds, 6), items]
                                 for name, (seconds, items) in sorted(tfmn.stage_times.items())},
                      "covered": round(covered / wall, 3) if wall else None}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
