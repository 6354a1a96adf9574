"""Set-up of a fresh interpreter: import homfly3 and answer the unknot.

Run as a child process of run.py, with ``src`` on PYTHONPATH.  The unknot
word 1,-1 at r = 1..4 builds and certifies every mixing matrix that r <= 4
needs, which every ``homfly3`` command-line invocation pays for.  The
reference loop of hostspeed is timed every SAMPLE_PERIOD seconds from the
start of the import on; the last line of standard output is a JSON object
with those loop times (``reference_loop_s``), and with ``--trace`` also the
per-layer values of the traced set-up (``layer``).  Exits with 1 if any
answer is not the unknot's polynomial 1.
"""

import io
import json
import sys

from hostspeed import HostSampler


def unknot_at_all_ranks():
    from homfly3 import cli  # here, so that a probe times the import

    for r in range(1, 5):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(["compute", "--braid", "1,-1", "--rep", str(r)], out, err)
        if code != 0 or out.getvalue() != "1\n":
            sys.stderr.write("unknot at r=%d: exit %d, output %r %s\n"
                             % (r, code, out.getvalue(), err.getvalue()))
            sys.exit(1)


if __name__ == "__main__":
    report = {}
    with HostSampler() as sampler:
        if "--trace" in sys.argv[1:]:
            import homfly3.cli  # noqa: F401  (the tracer wraps loaded modules)
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            unknot_at_all_ranks()
            tracer.uninstall()
            report["layer"] = tracer.layer_metrics()
        else:
            unknot_at_all_ranks()
    report["reference_loop_s"] = [d for _, d in sampler.ticks]
    print(json.dumps(report))
