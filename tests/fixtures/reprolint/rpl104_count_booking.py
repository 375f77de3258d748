"""Fixture: RPL104 — external-count booking outside the accounting layer.

This file's path is *not* allowlisted, so both bookings below are
violations, with or without a per-site split.
"""

__all__ = ["books_outside_accounting_layer", "books_residual_outside_accounting_layer"]


def books_outside_accounting_layer(metric, shard):
    metric.count_external(shard.n_calls, by_site=shard.by_site)


def books_residual_outside_accounting_layer(metric, n_calls):
    metric.count_external(n_calls)
