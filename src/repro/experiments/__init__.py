"""One module per paper experiment (see DESIGN.md's experiment index).

A module is its ``Scenario`` builders plus, per simulated catalog id,
an ``arms()`` (``{arm: (Scenario, seeds)}``, sized with
``scale.pick``) and the reduce of their runs to a structured result.
:mod:`repro.experiments.catalog` registers each paper artifact once,
as ``compute()`` plus ``table(result)``; both ``python -m repro <id>``
and the ``benchmarks/`` figure tests read that one definition.  A test
or an example that needs a smaller run calls a cell function or a
``Scenario`` builder.

Durations are scaled relative to the testbed (minutes -> tens of
simulated milliseconds).  ``quick``, the default scale, is each id's
one verdict horizon; ``smoke`` is the short run that pins its digest.
"""
