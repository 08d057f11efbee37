"""Child entry of the end-to-end benchmark: one workload, one fresh process.

``run.py`` starts this script once per rep, per set-up sample and per traced
rep, with the child's own temp dir as cwd.  The last line of stdout is one
JSON object; ``ready_t`` in it is ``time.monotonic()`` at the moment set-up
finished (the clock is system-wide on Linux, so the parent subtracts its
own spawn timestamp).

The top level is stdlib imports only and everything runs under the
``__main__`` check: the service's ``run_one`` uses the ``spawn`` start
method, which re-imports this file in every job process.
"""

import argparse
import json
import resource
import sys
import time


def _peak_rss_kb() -> int:
    """Largest resident set of this process or any child it has reaped.

    Its own peak is ``VmHWM``, not ``ru_maxrss``: the latter survives
    ``exec``, so it would start at the resident set of ``run.py`` at the
    moment it spawned this child.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass  # not Linux: fall back to ru_maxrss
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "rep", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    if args.mode == "trace":
        import layers

        result = layers.traced_rep(args.workload, args.seed, args.quick)
    else:
        import suite

        rep = suite.make_rep(args.workload, args.seed, args.quick)
        result = {}
        try:
            rep.setup()
            result["ready_t"] = time.monotonic()
            if args.mode == "rep":
                start = time.perf_counter()
                ops = rep.run()
                result["wall_s"] = time.perf_counter() - start
                result.update(suite.summarize_ops(ops))
        finally:
            rep.teardown()
    result["peak_rss_kb"] = _peak_rss_kb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
