"""A CoNLL-U reader written with a nested flush closure that is called once
more after the loop; tests compare `tfmn.ingest.iter_conllu` against it."""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator

from tfmn.ingest import ConlluError, ParsedSentence, Token


def reference_iter_conllu(
    path: str | Path, rejections: list[str] | None = None
) -> Iterator[ParsedSentence]:
    """Stream sentences from a CoNLL-U file.

    Multiword-token and empty-node lines are skipped. Sentences whose head
    links do not form a valid tree are skipped; a diagnostic is appended to
    `rejections` when given. Structural file errors raise ConlluError.
    """
    path = Path(path)
    doc_id = str(path)
    block: list[Token] = []
    block_start = 0

    def flush(lineno: int) -> ParsedSentence | None:
        nonlocal block
        if not block:
            return None
        sent = ParsedSentence(doc_id=doc_id, tokens=tuple(block))
        block = []
        try:
            sent.validate()
        except ValueError as exc:
            msg = f"{path}: sentence ending line {lineno}: {exc}"
            if rejections is not None:
                rejections.append(msg)
            return None
        return sent

    with path.open(encoding="utf-8") as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                sent = flush(lineno)
                if sent is not None:
                    yield sent
                continue
            if line.startswith("#"):
                m = re.match(r"#\s*newdoc id\s*=\s*(.+)", line)
                if m:
                    doc_id = m.group(1).strip()
                continue
            fields = line.split("\t")
            if len(fields) != 10:
                raise ConlluError(f"{path}: line {lineno}: expected 10 fields, got {len(fields)}")
            tok_id = fields[0]
            if "-" in tok_id or "." in tok_id:
                continue  # multiword token / empty node
            try:
                index = int(tok_id)
                head = int(fields[6])
            except ValueError as exc:
                raise ConlluError(f"{path}: line {lineno}: {exc}") from exc
            if not block:
                block_start = lineno
            block.append(
                Token(
                    index=index,
                    surface=fields[1],
                    lemma=fields[2] if fields[2] != "_" else fields[1],
                    upos=fields[3],
                    head=head,
                    deprel=fields[7],
                )
            )
        sent = flush(lineno)
        if sent is not None:
            yield sent
