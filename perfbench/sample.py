"""One benchmark sample: a fresh process that behaves like the sinhpierce CLI.

    python3 perfbench/sample.py CONFIG RESULT_JSON MODE SPAWN_TIME

MODE is `setup` (import and parse only), `run` (parse, then `cli.run`) or
`trace` (as `run`, with the per-layer tracer installed after parsing).
SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so start-up of the interpreter counts toward set-up time.
The exit code is the one `cli.run` returned.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    cfg_path, result_path, mode, t_spawn = argv[1], argv[2], argv[3], float(argv[4])

    import sinhpierce
    from sinhpierce import cli, runconfig
    t_import = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(cfg_path) as f:
        rc = runconfig.parse_config(f.read())
    t_parsed = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"import_s": t_import - t_spawn, "parse_s": t_parsed - t_import,
              "setup_s": t_parsed - t_spawn, "exit_code": 0}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer()
            result["bindings_wrapped"] = tracer.install()
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        code = cli.run(rc)
        t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
        result.update(exit_code=code, solve_s=t1 - t0, wall_s=t1 - t_spawn)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write_spans(result_path + ".spans.jsonl")

    import numpy
    import scipy

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__, "sinhpierce": sinhpierce.__version__}
    result["module_file"] = sinhpierce.__file__
    with open(result_path, "w") as f:
        json.dump(result, f)
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv))
