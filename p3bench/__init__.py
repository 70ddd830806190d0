"""The P3 benchmark: seeded workloads against the async serving front door.

``python3 p3bench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds a deployment (``AsyncGateway`` over
``P3Gateway`` with ``P3Config()`` defaults, a ``FacebookPSP`` and an
in-memory ``CloudStorage``), drives one workload through it with
closed-loop clients, checks every output after the clock stops, and
prints one JSON object as its last line.  See ``run.py`` for the
workloads and metrics.
"""
