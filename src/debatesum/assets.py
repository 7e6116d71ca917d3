"""Access to the data files shipped with the package."""

from __future__ import annotations

from functools import cache
from importlib import resources
from pathlib import Path

from .corpus import read_lines


def asset_path(name: str) -> Path:
    """Filesystem path of a packaged data asset (stopwords, lexicons)."""
    return Path(str(resources.files("debatesum").joinpath("data", name)))


@cache
def default_stopwords() -> frozenset[str]:
    """The packaged stopword list, one lowercased entry per line, read once per process."""
    return frozenset(line.lower() for _, line in read_lines(asset_path("stopwords.txt")))


def default_conjunctive_adverbs_path() -> Path:
    return asset_path("conjunctive_adverbs.txt")


def default_gazetteer_path() -> Path:
    return asset_path("climate_terms.txt")


def default_synonyms_path() -> Path:
    return asset_path("synonyms.tsv")
