"""Condition (Pi) against the paradox search on the whole random census.

    PYTHONPATH=src python -m pytest tests/census_check.py

The census is the 720 graphs random_graph(Random(s), 5, allow_infinite=True)
for s in 0-239, 1000-1239 and 2000-2239.  On every one, condition_pi must
give the verdict that paradox_report reaches at stem depth 2.  The file
name keeps it out of the default test collection: it takes about 1 s on
2 cores with Python 3.11.7.
"""
import random

import pytest

from gforge import corpus
from gforge.graph import condition_pi
from gforge.paradox import paradox_report


@pytest.mark.parametrize("start", [0, 1000, 2000])
def test_condition_pi_agrees_with_paradox_report(start):
    disagree = []
    for s in range(start, start + 240):
        g = corpus.random_graph(random.Random(s), 5, allow_infinite=True)
        if condition_pi(g).holds != paradox_report(g, stem_depth=2)["holds"]:
            disagree.append(s)
    assert disagree == []
