"""Developer tooling: the reprolint contract checker and runtime sanitizers.

``repro.devtools`` sits at the bottom of the layer DAG (next to
``repro.exceptions`` / ``repro.utils``) so that *any* layer may adopt its
runtime instrumentation — :mod:`repro.devtools.lockcheck` hands out the
locks the delta/serving layers guard their state with — without creating
an upward dependency.  The static side, :mod:`repro.devtools.lint`,
never imports the code it checks: it works on source text and the
declarative layer DAG in ``config/layers.toml``.
:mod:`repro.devtools.benchcompare` compares two sets of perfbench runs
against the bounds in ``BENCHMARK.json``.

Nothing is imported eagerly here: ``lockcheck`` must stay cheap to pull
in from hot modules, and ``lint`` drags in the TOML machinery only when
the ``repro lint`` CLI asks for it.
"""
