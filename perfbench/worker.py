"""Entry point of one measured pass, run in a fresh interpreter.

Usage: python3 perfbench/worker.py ROOT WORKLOAD SEED TRACE OUT_DIR
       python3 perfbench/worker.py ROOT setup     # time the set-up only

The first thing timed is the import a user pays on every CLI call
(``lgi_weaksim.cli`` plus ``build_parser()``), so the gate-map cache starts
empty and set-up is reported on its own; only ``os``, ``sys`` and ``time`` are
loaded before it.
"""

if __name__ == "__main__":
    import os
    import sys
    import time

    start = time.perf_counter()
    root = sys.argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    from lgi_weaksim import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.join(os.path.abspath(root), "src") + os.sep):
        sys.exit(f"lgi_weaksim was imported from {cli.__file__}, not from the checkout")
    if sys.argv[2] == "setup":
        print('{"setup_s": %r}' % setup_s)
        sys.exit(0)

    import passes

    passes.main(root, sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1", sys.argv[5], setup_s)
