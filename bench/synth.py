"""Seeded synthetic debate corpora with known ground truth.

Sentence text is built from the shipped gazetteer terms placed between
filler tokens. Filler comes from the shipped stopwords and from synthetic
words (shared ones and a few per topic, so topic signatures have something
to find). No filler token is a token of any gazetteer or synonym-table term,
and at least one filler token separates two planted terms, so greedy
longest-match annotation finds exactly the planted terms: they are the ground
truth the output checks compare against.

Two regimes:

* ``dup``: each topic's salient sentences carry one of a handful of term
  combinations, so many of the sentences X-means clusters share one term
  vector (what a 64-term gazetteer produces on real comments);
* ``diverse``: every term-bearing sentence draws 1-3 terms from the whole
  gazetteer, so almost every term vector is distinct.

Everything is a function of the seed, apart from the dup regime's salient
terms (see DUP_GEOMETRY_SEED) and the multiset of comment lengths (see
comment_lengths); nothing is downloaded. Run directly to write
one corpus for inspection:

    python3 bench/synth.py --workload term-gold --seed 1 --out .bench_work/corpus
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "debatesum" / "data"
GAZETTEER = DATA / "climate_terms.txt"
SYNONYMS = DATA / "synonyms.tsv"
STOPWORDS = DATA / "stopwords.txt"
ADVERBS = DATA / "conjunctive_adverbs.txt"

_WORD = re.compile(r"[a-z]+")
_SYLLABLES = ("ka", "lo", "mir", "ta", "ven", "su", "dre", "po", "lin", "ga",
              "rou", "ze", "bi", "nok", "fa", "tel", "mu", "shi", "qua", "der")

Term = tuple  # tuple[str, ...]

# X-means on duplicate points spends an amount of work that swings widely
# from one input to the next (see README.md), so the dup regime's clustering
# input does not follow --seed: every seed plants the same term combinations
# in the same salient sentences. Filler, titles, the order of comment
# lengths, the non-salient sentences and their terms still follow --seed.
# This geometry seed was picked among the first few so that the fault's
# RuntimeWarning path (Lloyd means over emptied clusters) runs on every
# operation.
DUP_GEOMETRY_SEED = 6
DUP_COMBOS = (3, 6)       # term combinations per topic
DUP_FREE_SALIENT = 2      # term-free salient sentences per side
TERM_FREE = 0.15          # share of term-free sentences (dup salient ones excepted)
SHARED_WORDS = 150        # synthetic filler words shared by all topics
TOPIC_WORDS = 12          # synthetic filler words of each topic


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload's corpus."""

    regime: str               # "dup" or "diverse"
    comments: tuple           # comment count of each topic, split evenly between the sides
    sentences: tuple          # (min, max) sentences per comment
    gold: bool = False        # write gold selections and embeddings


@dataclass
class PlantedSentence:
    id: str
    position: int
    tokens: list
    terms: list               # planted gazetteer terms (surface form), in order


@dataclass
class PlantedComment:
    id: str
    side: str
    sentences: list


@dataclass
class PlantedTopic:
    id: str
    title: str
    comments: list


@dataclass
class Corpus:
    topics: list
    gold: list = field(default_factory=list)       # (annotator, comment id, [sentence ids])
    embeddings: dict = field(default_factory=dict)  # token -> list of floats


def read_lines(path: Path) -> list[str]:
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def gazetteer_terms() -> list[Term]:
    return sorted({tuple(line.lower().split()) for line in read_lines(GAZETTEER)})


def synonym_rows() -> list[list[Term]]:
    return [
        [tuple(cell.lower().split()) for cell in line.split("\t") if cell.strip()]
        for line in read_lines(SYNONYMS)
    ]


def _reserved_tokens() -> set[str]:
    tokens = {t for term in gazetteer_terms() for t in term}
    tokens |= {t for row in synonym_rows() for term in row for t in term}
    return tokens


def _synthetic_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def salient_count(n: int, ratio: float = 0.2) -> int:
    return max(1, math.ceil(ratio * n))


def comment_lengths(rng: random.Random, bounds: tuple, count: int) -> list[int]:
    """Sentence counts spread evenly over ``bounds``, in seeded order.

    Every seed gets the same multiset of lengths, so the corpus size (and
    with it most of the program's work) does not follow the seed.
    """
    lo, hi = bounds
    lengths = [lo + i * (hi - lo + 1) // count for i in range(count)]
    rng.shuffle(lengths)
    return lengths


def _deal_dup(geometry: random.Random, terms: list, shape: Shape, comments: int) -> dict[str, list]:
    """Planted terms of each side's salient sentences, last sentence first.

    A topic has a few term combinations: one to three draws, repeats
    allowed, from eight topic terms. Every salient sentence of the topic
    carries one of them (Zipf-weighted), except ``DUP_FREE_SALIENT`` term-free
    ones per side.
    """
    lo, hi = shape.sentences
    per_comment = salient_count(lo)
    if salient_count(hi) != per_comment:
        raise ValueError("dup regime needs one salient count for every comment length")
    pool = geometry.sample(terms, 8)
    combos: list = []
    wanted = geometry.randint(*DUP_COMBOS)
    while len(combos) < wanted:
        combo = sorted(geometry.choice(pool) for _ in range(geometry.randint(1, 3)))
        if combo not in combos:
            combos.append(combo)
    weights = [1.0 / (i + 1) for i in range(len(combos))]
    deal = {}
    for side in ("agree", "disagree"):
        slots = per_comment * (comments // 2)
        hand = [[] for _ in range(DUP_FREE_SALIENT)]
        hand += [list(c) for c in geometry.choices(combos, weights, k=slots - len(hand))]
        geometry.shuffle(hand)
        deal[side] = hand
    return deal


def generate(shape: Shape, seed: int) -> Corpus:
    rng = random.Random(seed)
    geometry = random.Random(DUP_GEOMETRY_SEED)
    reserved = _reserved_tokens()
    stopwords = [w for w in read_lines(STOPWORDS) if _WORD.fullmatch(w) and w not in reserved]
    adverbs = [w for w in read_lines(ADVERBS) if _WORD.fullmatch(w) and w not in reserved]
    terms = gazetteer_terms()
    taken = reserved | set(stopwords) | set(adverbs)
    shared = _synthetic_words(rng, SHARED_WORDS, taken)

    topics: list[PlantedTopic] = []
    for ti, n_comments in enumerate(shape.comments):
        own = _synthetic_words(rng, TOPIC_WORDS, taken)
        title_term = rng.choice(terms)
        title = f"{own[0]} {own[1]} and {' '.join(title_term)}"
        lengths = comment_lengths(rng, shape.sentences, n_comments)
        deal = _deal_dup(geometry, terms, shape, n_comments) if shape.regime == "dup" else {}
        comments: list[PlantedComment] = []
        for ci, length in enumerate(lengths):
            side = "agree" if ci % 2 == 0 else "disagree"
            cid = f"t{ti}c{ci}"
            sentences = []
            for si in range(length):
                if deal and si < salient_count(length):
                    planted = deal[side].pop()
                elif rng.random() < TERM_FREE:
                    planted = []
                else:
                    planted = [rng.choice(terms) for _ in range(rng.choice((1, 1, 2, 3)))]
                tokens: list[str] = []
                if rng.random() < 0.1:
                    tokens.append(rng.choice(adverbs))

                def filler(lo: int, hi: int) -> None:
                    for _ in range(rng.randint(lo, hi)):
                        r = rng.random()
                        pool = stopwords if r < 0.5 else own if r < 0.7 else shared
                        tokens.append(rng.choice(pool))

                filler(2, 5)
                for term in planted:
                    tokens.extend(term)
                    filler(1, 4)
                sentences.append(PlantedSentence(f"{cid}s{si}", si + 1, tokens, planted))
            comments.append(PlantedComment(cid, side, sentences))
        topics.append(PlantedTopic(f"t{ti}", title, comments))

    corpus = Corpus(topics=topics)
    if shape.gold:
        for topic in topics:
            for comment in topic.comments:
                ids = [s.id for s in comment.sentences]
                k = salient_count(len(ids))
                for annotator in ("a1", "a2"):
                    chosen = set(rng.sample(ids, k))
                    corpus.gold.append((annotator, comment.id, [i for i in ids if i in chosen]))
        vocabulary = sorted(
            {t for topic in topics for c in topic.comments for s in c.sentences for t in s.tokens}
            | {t for topic in topics for t in topic.title.split()}
        )
        for token in vocabulary:
            corpus.embeddings[token] = [round(rng.gauss(0.0, 1.0), 4) for _ in range(8)]
    return corpus


def sentence_count(corpus: Corpus) -> int:
    return sum(len(c.sentences) for t in corpus.topics for c in t.comments)


def write(corpus: Corpus, directory: Path, config: dict) -> Path:
    """Write corpus, gold, embeddings and a config with absolute paths.

    ``config`` holds the pipeline settings (method, labels, seed, output
    directory); the input paths are filled in here. Returns the config path.
    """
    directory.mkdir(parents=True, exist_ok=True)
    doc = {
        "topics": [
            {
                "id": t.id,
                "title": t.title,
                "comments": [
                    {
                        "id": c.id,
                        "side": c.side,
                        "sentences": [
                            {"id": s.id, "position": s.position, "text": " ".join(s.tokens) + "."}
                            for s in c.sentences
                        ],
                    }
                    for c in t.comments
                ],
            }
            for t in corpus.topics
        ]
    }
    (directory / "corpus.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    full = {
        "corpus_path": str((directory / "corpus.json").resolve()),
        "gazetteer_path": str(GAZETTEER.resolve()),
        "synonyms_path": str(SYNONYMS.resolve()),
        **config,
    }
    if corpus.gold:
        gold = {
            "annotations": [
                {"annotator_id": a, "comment_id": c, "selected": ids} for a, c, ids in corpus.gold
            ]
        }
        (directory / "gold.json").write_text(json.dumps(gold, indent=1) + "\n", encoding="utf-8")
        lines = [f"{len(corpus.embeddings)} 8"]
        lines += [f"{tok} " + " ".join(f"{x:.4f}" for x in vec) for tok, vec in corpus.embeddings.items()]
        (directory / "embeddings.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        full["gold_path"] = str((directory / "gold.json").resolve())
        full["embeddings_path"] = str((directory / "embeddings.txt").resolve())
    path = directory / "config.json"
    path.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main() -> None:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    corpus = generate(workload.shape, args.seed)
    path = write(corpus, args.out, workload.config(args.out / "out"))
    print(f"{sentence_count(corpus)} sentences; config {path}")


if __name__ == "__main__":
    main()
