"""Process entry of the `swansim` command and `python -m swansim`.

main() is the first swansim code a CLI process runs, since `import swansim`
loads nothing (see swansim/__init__), so it acts before numpy loads:

- it sets OPENBLAS_NUM_THREADS to 1 unless the environment already sets it.
  No CLI command makes a BLAS call, yet at `import numpy` OpenBLAS starts a
  worker thread per further CPU, which spins for about 100 ms of CPU;
- it turns the collector off while cli imports numpy and the swansim
  modules every command needs (model, errors), and while cli._bind imports
  the modules of the subcommand sys.argv[1] names (closed_form, propagator
  and the CSV writer _csvrows for simulate; closed_form, propagator and
  geometry for sweep; closed_form, propagator, gaussian and ode for validate;
  geometry for classify; none for --help or a name that is not a
  subcommand): the 32 collections those imports trigger free about 300
  objects;
- it then moves every object alive after the imports (about 32 000: the
  interpreter's, numpy's and swansim's) to the permanent generation
  (gc.freeze), which no later collection visits.  The collections at exit
  skip that heap, and its cycles are left to the operating system rather
  than freed.  The command's modules are imported before the freeze, so
  their heap is frozen with the rest, as when cli imported them.

cli.main(argv) is the in-process API, for tests and tracers; it touches
neither the collector nor the environment, so such a caller keeps both.
"""

import gc
import os
import sys

__all__ = ["main"]


def main() -> int:
    """Run the command line on sys.argv with one BLAS thread and the import-time heap frozen."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    try:
        from . import cli

        command = sys.argv[1] if len(sys.argv) > 1 else None
        if command in cli._COMMANDS:
            cli._bind(cli._COMMANDS[command][3])
        gc.freeze()
    finally:
        gc.enable()
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
