"""End-to-end benchmark of the LC-oscillator simulation stack.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from a source checkout: it times a
user job repeatedly, checks every job's output against an untimed
golden reference, and prints one JSON result line.  With ``--trace 1``
it wraps the public entry points of each ``repro`` layer from
:mod:`perfbench.spans` and reports the per-layer breakdown defined in
:mod:`perfbench.layers` instead.
"""
