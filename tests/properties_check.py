"""The germ and sigma properties of test_properties.py at a deeper profile.

    PYTHONPATH=src python -m pytest tests/properties_check.py

Hypothesis draws the seed of random_graph(Random(seed), 4,
allow_infinite=True), so graphs have up to four vertices, and each
property checks 400 examples, derandomized like the default profile.
The file name keeps it out of the default test collection: it takes
about 33 s on 2 cores with Python 3.11.7.
"""
import random

from hypothesis import given, settings

from gforge import corpus
from test_properties import germ_laws, seeds, sigma_laws

EXAMPLES = 400
DEEP = settings(derandomize=True, deadline=None, database=None,
                max_examples=EXAMPLES)


def graph_of(seed):
    return corpus.random_graph(random.Random(seed), 4, allow_infinite=True)


@DEEP
@given(seeds)
def test_germ_laws_deep(seed):
    germ_laws(graph_of(seed))


@DEEP
@given(seeds)
def test_sigma_laws_deep(seed):
    sigma_laws(graph_of(seed))
