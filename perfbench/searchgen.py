"""Deterministic TREC run and diversity qrels for the search workload.

Uses only the standard library's ``random.Random`` so that the bytes written
for a seed do not depend on the installed numpy.
"""

from __future__ import annotations

import random
from pathlib import Path

QUERIES = 300
DOCS_PER_QUERY = 100
INTENTS_PER_QUERY = 6
RELEVANT_PROB = 0.15


def write_search_inputs(run_path: Path, qrels_path: Path, seed: int) -> dict[str, int]:
    """Write a ranked run and every (query, intent, doc) judgment; return sizes.

    Each query ranks its own documents with descending uniform scores (written
    as Python float reprs); each (doc, intent) pair is relevant with
    probability ``RELEVANT_PROB``.
    """
    rng = random.Random(seed)
    run_lines: list[str] = []
    qrels_lines: list[str] = []
    judged = 0
    for q in range(QUERIES):
        qid = f"q{q:04d}"
        docs = [f"d{q:04d}-{j:03d}" for j in range(DOCS_PER_QUERY)]
        rng.shuffle(docs)
        scores = sorted((rng.random() for _ in docs), reverse=True)
        for rank, (doc, score) in enumerate(zip(docs, scores), start=1):
            run_lines.append(f"{qid} Q0 {doc} {rank} {score!r} bm25\n")
        for doc in sorted(docs):
            positive = False
            for i in range(INTENTS_PER_QUERY):
                rel = 1 if rng.random() < RELEVANT_PROB else 0
                positive = positive or rel == 1
                qrels_lines.append(f"{qid} i{i} {doc} {rel}\n")
            judged += positive
    run_path.parent.mkdir(parents=True, exist_ok=True)
    qrels_path.parent.mkdir(parents=True, exist_ok=True)
    run_path.write_text("".join(run_lines), encoding="utf-8")
    qrels_path.write_text("".join(qrels_lines), encoding="utf-8")
    return {"queries": QUERIES, "run_entries": len(run_lines), "judgments": len(qrels_lines), "judged_docs": judged}
