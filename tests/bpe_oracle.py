"""The rescan-per-merge BPE encoder, kept as the oracle for `tokenizer.encode`.

Each round scans every adjacent pair for the lowest-rank one, then
merges every occurrence of that pair in one left-to-right pass; O(n·m)
per document. `tests/test_bpe.py` checks the merge-queue encoder against
it id for id.
"""

from deskllm.tokenizer import Vocab


def reference_encode(text: str | bytes, vocab: Vocab) -> list[int]:
    """Greedy BPE: repeatedly merge the lowest-rank adjacent pair, left to right.

    Starts from single bytes; with no merge table this is plain
    byte-level encoding.
    """
    if isinstance(text, str):
        text = text.encode("utf-8")
    symbols = [bytes([b]) for b in text]
    ranks = vocab.merge_ranks
    while len(symbols) > 1 and ranks:
        best = None
        for i in range(len(symbols) - 1):
            rank = ranks.get((symbols[i], symbols[i + 1]))
            if rank is not None and (best is None or rank < best[0]):
                best = (rank, symbols[i], symbols[i + 1])
        if best is None:
            break
        _, left, right = best
        merged = left + right
        out: list[bytes] = []
        i = 0
        while i < len(symbols):
            if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
                out.append(merged)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        symbols = out
    try:
        return [vocab.token_to_id[s] for s in symbols]
    except KeyError as exc:
        raise ValueError(f"token {exc.args[0]!r} not in vocabulary") from None
