"""repro.analysis — determinism linter and runtime slack sanitizer.

The reproduction rests on two properties: bit-for-bit determinism (same
spec and seed, same report digest) and the paper's timing invariants
(bounded slack never exceeds ``b``, ``global_time == min(local_time)``
over running cores, a rollback restores exactly the checkpointed state).
Golden digests, cache-key tests and the import-closure tests check the
first at run time.  This package holds what they cannot:

- a **static linter** (``python -m repro lint``, :mod:`.engine`): one
  per-file pass of the rules no test can stand in for — ``__slots__`` on
  ``# repro: hot-path`` classes (RPR005), asyncio read-modify-write
  across an ``await`` in the service and fabric layers (RPR103), and
  ``# repro: noqa[...]`` hygiene (RPR008);

- a **runtime slack sanitizer** (``repro run --sanitize``,
  :mod:`.sanitizer`): an opt-in checker wired through the telemetry
  seams that keeps per-core vector clocks and raises a structured
  :class:`~repro.analysis.sanitizer.SanitizerError` naming the invariant,
  the cores involved and the cycle.

This package root re-exports nothing, so a ``--sanitize`` job that
imports :mod:`.sanitizer` does not load the linter;
``tests/test_import_closure.py`` pins that.
"""
