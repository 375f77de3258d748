"""Fixture: RPL102 — attribution sites opened by hand outside metrics/base.py.

Every ``push_site``/``pop_site`` call below is a finding, however it is
paired: ``leaks_on_exception`` even skips its pop when the distance call
raises. ``paired`` and ``paired_conditional`` open their site with
``with site(...)``, which closes it on every exit path, and are clean.
"""

from repro.metrics.base import pop_site, push_site, site

__all__ = [
    "leaks_on_exception",
    "unmatched_pop",
    "paired",
    "paired_conditional",
]


def leaks_on_exception(metric, obj, others):
    push_site("fixture")
    dists = metric.one_to_many(obj, others)  # a raise here skips the pop
    pop_site()
    return dists


def unmatched_pop(values):
    total = sum(values)
    pop_site()
    return total


def paired(metric, obj, others):
    # Negative: the site closes on every path, normal or exceptional.
    with site("fixture"):
        return metric.one_to_many(obj, others)


def paired_conditional(metric, obj, others, attribute):
    # Negative: a site opened on one branch only is still closed.
    if attribute:
        with site("fixture"):
            return metric.one_to_many(obj, others)
    return metric.one_to_many(obj, others)
