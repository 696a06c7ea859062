"""The repo benchmark: end-to-end workloads plus a traced per-layer rollup.

Run ``python -m benchmarks.ledger`` from the repository root; see
``benchmarks/ledger/README.md`` for the workloads and metrics.
"""
