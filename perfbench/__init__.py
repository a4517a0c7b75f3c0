"""The repository benchmark: SNFS workloads timed end to end on the
host clock, plus a traced run that splits the time by layer.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
