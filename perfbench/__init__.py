"""Measured training and simulator benchmark for the FA3C reproduction.

Run it with ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
