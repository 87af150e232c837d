"""One module per paper experiment (see DESIGN.md's experiment index).

Every experiment is a plain function returning a structured result
dataclass.  :mod:`repro.experiments.catalog` registers each paper
artifact once, as ``compute()`` plus ``table(result)``; both
``python -m repro <id>`` and the ``benchmarks/`` figure tests read that
one definition, and ``examples/`` reuses the functions for runnable
demos.

Durations are scaled relative to the testbed (minutes -> tens of
simulated milliseconds); set ``REPRO_SCALE=full`` for longer runs and
more repetitions.
"""
