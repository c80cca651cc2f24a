"""Seeded, oracle-checked benchmark for the ``kings`` package.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
