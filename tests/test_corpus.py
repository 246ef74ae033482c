import corpus
from finitekey import smooth


def test_corpus_subset_matches_its_recorded_digest(monkeypatch):
    """Every float and witness of the corpus's n <= 1000 grid hashes to the
    recorded digest, as the `_CHEAP` rule routes each middle, with new
    spectra for every call, so none starts from another's kept points, and
    again with every nonempty middle read through its residue pass
    (`_CHEAP` = 0)."""
    assert corpus.run(subset=True)[:2] == corpus.RECORDED[True]
    assert corpus.run(subset=True, fresh=True)[:2] == corpus.RECORDED[True]
    monkeypatch.setattr(smooth, "_CHEAP", 0)
    calls, digest, routes = corpus.run(subset=True)
    assert (calls, digest) == corpus.RECORDED[True]
    assert all("residue pass" in route for route in routes if "exact middle" in route)
