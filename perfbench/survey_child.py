"""Run `perazzo survey` with the benchmark's spans installed.

    python3 perfbench/survey_child.py OUT_DIR survey --degrees 5..8 ...

Every survey task writes its span statistics to OUT_DIR/<degree>-<index>.json
from whichever process ran it, pool worker or front end.  The workers must
inherit the wrappers, so the pool is started by forking.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import sys
from pathlib import Path

import spans


def main() -> int:
    out_dir = Path(sys.argv[1])
    from perazzo import cli

    tracer = spans.Tracer()
    spans.install(tracer)
    sample = cli._survey_sample

    @functools.wraps(sample)  # pickled by name, as perazzo.cli._survey_sample
    def traced_sample(task):
        _, d, index, _, _ = task
        tracer.reset()
        tracer.active = True
        try:
            return sample(task)
        finally:
            tracer.active = False
            (out_dir / f"{d}-{index}.json").write_text(json.dumps(tracer.snapshot()))

    cli._survey_sample = traced_sample
    multiprocessing.set_start_method("fork")
    return cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
