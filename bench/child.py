"""One benchmark run in a fresh interpreter.

Usage: python3 child.py SPEC.json

Sets the scene up the way the CLI does (import flowgeo, read the scene
file, synthesize), records the monotonic time at which it is ready,
optionally installs the span tracer, calls flowgeo.cli.run(argv) once and
writes a JSON record of the outcome to the path the spec names.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from flowgeo import cli
    from flowgeo.geometry import CameraIntrinsics
    from flowgeo.scene import read_scene_file, synthesize

    height, width = spec["height"], spec["width"]
    scene, camera, ego = read_scene_file(spec["scene"])
    if camera is None:  # the CLI's default camera for this grid
        camera = CameraIntrinsics(100.0, 100.0, width / 2.0, height / 2.0)
    synthesize(scene, camera, ego, height, width)
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    error = ""
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(spec["argv"])
    except Exception:  # recorded as a failed run by the parent
        code, error = None, traceback.format_exc()
    run_s = time.perf_counter() - started

    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    record = {
        "ready": ready,
        "run_s": run_s,
        "exit_code": code,
        "traceback": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "peak_rss_kib": rss_kib,
        "trace": tracer.summary() if tracer else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1])
