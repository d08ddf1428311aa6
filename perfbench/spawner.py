"""Spawn commands one at a time and report each one's wall time and peak memory.

Reads one JSON request per stdin line, {"argv": [...], "stdout": path,
"stderr": path}, runs it to completion with its output in those files,
and answers with one JSON line, {"wall_s": ..., "status": ..., "maxrss_kib": ...},
where maxrss_kib is the child's max-RSS from os.wait4.

run.py spawns through this small, long-lived process instead of spawning
directly because Linux counts the memory of the spawning process into a
child's max-RSS: run.py grows while it parses outputs of many megabytes,
this process stays smaller than any floorfull run.
"""

import json
import os
import sys
from time import perf_counter


def main() -> None:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o600),
        ]
        argv = request["argv"]
        start = perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - start
        answer = {"wall_s": wall, "status": status, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
