"""One benchmark sample: a fresh interpreter running one CLI experiment.

    python3 child.py SRC REPORT TRACE CONFIG_TEXT -- CLI_ARGS...

Imports fermiwire from SRC, builds the config from CONFIG_TEXT (the end
of set-up), optionally installs the span tracer, runs ``cli.main`` on
CLI_ARGS and writes a JSON report to REPORT: the set-up end time on the
monotonic clock shared with the parent, the experiment's wall and CPU
time, its exit code, the peak RSS and, when traced, the spans.
"""

import json
import resource
import sys
import time


def main() -> int:
    src, report_path, trace, config_text, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC REPORT TRACE CONFIG_TEXT -- CLI_ARGS...")
    sys.path.insert(0, src)
    from fermiwire import cli, harness

    harness.build_config(harness.parse_config_text(config_text))
    setup_end = time.perf_counter()
    recorder = None
    if trace == "1":
        import spans

        recorder = spans.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = cli.main(cli_args)
    exp_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    report = {
        "module": cli.__file__,
        "setup_end": setup_end,
        "exp_s": exp_s,
        "cpu_s": cpu_s,
        "exit_code": code,
        "maxrss_kb": after.ru_maxrss,
        "spans": None if recorder is None else recorder.spans,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
