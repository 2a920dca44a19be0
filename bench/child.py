"""One `imbcal run` invocation, timed from inside its own process.

Run as ``python3 bench/child.py --src SRC --config CFG --out DIR --timing T
[--spans S]``. It imports imbcal from SRC, calls ``imbcal.cli.main`` the way
the ``imbcal`` console script does, and writes its timestamps to T as JSON.
The exit code is the one ``main`` returned; an escaped exception exits 1
with its traceback on stderr and writes no timing file.

``setup_s`` runs from just before ``import imbcal`` to the first call into
``backbone.train``: one timestamp, not per-call tracing. With ``--spans`` the
run is traced (see spans.py) and the spans are written to S at the end.
"""

import argparse
import importlib
import json
import os
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    for flag in ("--src", "--config", "--out", "--timing"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--spans")
    parser.add_argument("--memory", action="store_true", help="tracemalloc peak per span")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))

    recorder = None
    if args.spans:
        import spans

        recorder = spans.Recorder(memory=args.memory)
        recorder.start()
    t_import = time.perf_counter()
    if recorder is not None:
        imbcal = recorder.call("import.imbcal", importlib.import_module, "imbcal")
    else:
        imbcal = importlib.import_module("imbcal")
    from imbcal import backbone, cli

    if not os.path.abspath(imbcal.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.exit(f"imbcal was imported from {imbcal.__file__}, not from {args.src}")

    first_train = []
    train = backbone.train

    def train_marked(*a, **k):
        if not first_train:
            first_train.append(time.perf_counter())
        return train(*a, **k)

    backbone.train = train_marked
    argv = ["run", "--config", args.config, "--out", args.out]
    if recorder is not None:
        spans.install(recorder)
        code = recorder.call("cli.main", cli.main, argv)
        recorder.stop()
    else:
        code = cli.main(argv)
    end = time.perf_counter()
    if code == 0:
        timing = {"import_start": t_import, "first_train": first_train[0], "end": end}
        with open(args.timing, "w", encoding="utf-8") as fh:
            json.dump(timing, fh)
        if recorder is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
