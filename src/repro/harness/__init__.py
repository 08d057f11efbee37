"""Experiment harness: one entry point per paper table/figure.

Each function in :mod:`repro.harness.experiments` regenerates one table or
figure of the paper's evaluation section on the reproduction's scaled-down
workloads (see EXPERIMENTS.md for the scale mapping), returning structured
rows, the same series the paper reports, and the paper's claims checked
against them; ``repro experiment`` prints all three and exits 1 when a
claim fails.

This package root re-exports nothing: import each name from the module
that defines it (``repro.harness.cache`` for ``RunSpec`` / ``ReportCache``
/ ``spec_key``, ``.pool`` for ``execute_spec`` / ``ParallelExecutor``,
``.runner`` for ``ExperimentRunner``, ``.experiments`` for the paper
drivers, ``.tables``, ``.bench``).  A kernel process that needs only
``RunSpec`` then never loads the process pool or the fifteen drivers;
``tests/test_import_closure.py`` pins that.
"""
