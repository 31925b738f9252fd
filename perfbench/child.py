"""One benchmark pass in a fresh interpreter.

usage: python3 child.py RESULT_JSON PASS_ID TRACE ARGV...

Times `import shufflesum` (numpy and scipy.stats included), then one call
of `shufflesum.cli.main(ARGV)`, and writes the measurements, the exit code
and, with TRACE=1, the spans to RESULT_JSON.  The process's peak RSS
belongs to this pass alone.
"""

import json
import resource
import sys
import time


def main():
    result_path, pass_id, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[4:]

    start = time.perf_counter()
    import shufflesum.cli

    setup_s = time.perf_counter() - start

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer(pass_id)
        tracer.install()

    start = time.perf_counter()
    code = shufflesum.cli.main(argv)
    wall_s = time.perf_counter() - start

    result = {
        "exit": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
