"""Frozen copy of part of the `cointerval` package, as of the commit that
added this benchmark.

It is the benchmark's yardstick for machine speed (see calibrate.py) and
is never benchmarked itself.  Keep it byte-for-byte unchanged: editing
it changes what a second of normalized time means.
"""
