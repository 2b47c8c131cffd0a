from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codepretrain import bpe

# Frozen after one audited measurement on the bundled corpus (code-trained vs
# NL-trained tokenizer, vocab 1000, min_freq 2).
GOLDEN_MEAN_RATIO = 0.6043053939109967


def test_train_learns_repeated_unit():
    tok = bpe.train(["aaaa aaaa aaaa"], vocab_size=380, min_freq=3)
    assert ("a", "a") in tok.merges
    assert tok.token_for_id(*tok.encode_word("aaaa")) == "aaaa"


def test_min_freq_excludes_rare_tokens():
    # 'bb' appears twice; with min_freq=3 the (b, b) merge may not be learned.
    rare = bpe.train(["bb bb"], vocab_size=380, min_freq=3)
    assert ("b", "b") not in rare.merges
    common = bpe.train(["bb bb bb"], vocab_size=380, min_freq=3)
    assert ("b", "b") in common.merges


def test_vocab_size_precondition():
    with pytest.raises(ValueError, match=r"vocab_size must exceed specials \+ byte units \(\d+\), got 300"):
        bpe.train(["abc"], vocab_size=300, min_freq=1)


def test_min_freq_precondition():
    with pytest.raises(ValueError, match="min_freq must be >= 1, got 0"):
        bpe.train(["abc"], vocab_size=400, min_freq=0)


def test_empty_corpus_error():
    with pytest.raises(ValueError, match="training corpus is empty"):
        bpe.train([], vocab_size=400, min_freq=1)
    with pytest.raises(ValueError, match="training corpus is empty"):
        bpe.train([""], vocab_size=400, min_freq=1)


def test_empty_roundtrip(tokenizer):
    assert tokenizer.encode("") == []
    assert tokenizer.decode([]) == ""


def test_special_literal_single_id(tokenizer):
    ids = tokenizer.encode("x [MASK7] y")
    assert sum(1 for i in ids if tokenizer.sentinel_index(i) == 7) == 1
    assert tokenizer.decode(ids) == "x [MASK7] y"
    # opting out of special matching spells it from bytes instead
    raw = tokenizer.encode("[MASK7]", use_specials=False)
    assert all(not tokenizer.is_special_id(i) for i in raw)
    assert tokenizer.decode(raw) == "[MASK7]"


# words with one and several pre-tokens, whitespace, non-ASCII text, and
# special-token literals, which encode_word spells from bytes
WORDS = ["return", "binarySearch", "x2", "a.b", "foo(bar)", "don't", "été", "٣", " ", "\n\t", "",
         "[SEP]", "[MASK7]", "x [MASK7] y", "<java>"]


def test_encode_word_matches_encode(tokenizer):
    # either call may fill the cache first
    word_first = bpe.SubwordTokenizer(tokenizer.specials, tokenizer.merges)
    text_first = bpe.SubwordTokenizer(tokenizer.specials, tokenizer.merges)
    for w in WORDS:
        ids = word_first.encode_word(w)
        assert ids == tuple(word_first.encode(w, use_specials=False)), w
        assert tuple(text_first.encode(w, use_specials=False)) == text_first.encode_word(w) == ids, w
    assert word_first.encode_word("[SEP]") != (tokenizer.sep_id,)


@given(st.text(max_size=40))
@settings(max_examples=100, deadline=None)
def test_encode_word_matches_encode_on_any_text(tokenizer, word):
    assert tokenizer.encode_word(word) == tuple(tokenizer.encode(word, use_specials=False))


def test_callers_cannot_change_cached_ids(tokenizer):
    tok = bpe.SubwordTokenizer(tokenizer.specials, tokenizer.merges)
    ids = tok.encode_word("binarySearch")
    assert isinstance(ids, tuple)
    for use_specials in (False, True):
        out = tok.encode("binarySearch", use_specials=use_specials)
        out.append(tok.sep_id)
        out[0] = tok.pad_id
    assert tok.encode("binarySearch") == tok.encode("binarySearch", use_specials=False) == list(ids)
    assert tok.encode_word("binarySearch") == ids


def test_specials_occupy_fixed_slots(tokenizer):
    assert tokenizer.pad_id == 0
    assert tokenizer.cls_id == 1
    assert tokenizer.sep_id == 2
    assert tokenizer.mask_id(0) == 3
    assert tokenizer.mask_id(99) == 102
    assert tokenizer.specials[:3] == ["[PAD]", "[CLS]", "[SEP]"]


def test_specials_never_produced_by_merges(tokenizer):
    specials = set(tokenizer.specials)
    for a, b in tokenizer.merges:
        assert (a + b) not in specials


def test_brace_is_single_learned_unit(code_tokenizer):
    ids = code_tokenizer.encode("{", use_specials=False)
    assert len(ids) == 1
    assert not code_tokenizer.is_special_id(ids[0])
    assert code_tokenizer.decode(ids) == "{"


def test_decode_out_of_range_id(tokenizer):
    with pytest.raises(ValueError, match=f"id out of range: {tokenizer.vocab_size}"):
        tokenizer.decode([tokenizer.vocab_size])


def test_deterministic_training(bundled_records):
    texts = [r.code for r in bundled_records[:50]]
    a = bpe.train(texts, vocab_size=500, min_freq=2)
    b = bpe.train(texts, vocab_size=500, min_freq=2)
    assert a.merges == b.merges


def test_save_load_roundtrip(tokenizer, tmp_path):
    tokenizer.save(tmp_path / "tok")
    back = bpe.SubwordTokenizer.load(tmp_path / "tok")
    assert back.specials == tokenizer.specials
    assert back.merges == tokenizer.merges
    sample = 'def f(x):\n    return {"k": x}'
    assert back.encode(sample) == tokenizer.encode(sample)


def test_load_rejects_non_tokenizer_dir(tmp_path):
    (tmp_path / "vocab.txt").write_text("not a header\n", encoding="utf-8")
    (tmp_path / "merges.txt").write_text("", encoding="utf-8")
    with pytest.raises(ValueError):
        bpe.SubwordTokenizer.load(tmp_path)


@pytest.mark.parametrize("files", [("vocab.txt",), ("merges.txt",), ("vocab.txt", "merges.txt")])
def test_load_refuses_another_format_version(tokenizer, tmp_path, files):
    """A header of a format version this code does not write is refused, so an
    old tokenizer directory is never read as a new one."""
    tokenizer.save(tmp_path)
    for name in files:
        text = (tmp_path / name).read_text(encoding="utf-8")
        (tmp_path / name).write_text(text.replace(f" v{bpe.FORMAT_VERSION}\n", " v9\n", 1), encoding="utf-8")
    what = files[0].removesuffix(".txt")
    with pytest.raises(ValueError, match=f"^{what} file has format version 9, expected {bpe.FORMAT_VERSION}$"):
        bpe.SubwordTokenizer.load(tmp_path)


def test_load_reads_a_merge_whose_first_unit_is_a_hash(tmp_path):
    tok = bpe.train(["#! x #! y"] * 5, vocab_size=400, min_freq=2)
    assert ("#", "!") in tok.merges
    tok.save(tmp_path)
    assert bpe.SubwordTokenizer.load(tmp_path).merges == tok.merges


@pytest.mark.parametrize("bad", ["ab", "a b c", "a  b", " a"])
def test_load_names_a_merges_line_that_is_not_two_units(tokenizer, tmp_path, bad):
    tokenizer.save(tmp_path)
    path = tmp_path / "merges.txt"
    header, first, *rest = path.read_text(encoding="utf-8").split("\n")
    path.write_text("\n".join([header, first, bad, *rest]), encoding="utf-8")
    message = f"{path} line 3: a merge is two units separated by one space, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bpe.SubwordTokenizer.load(tmp_path)


def test_compression_identity(tokenizer, bundled_records):
    texts = [r.code for r in bundled_records[:20]]
    report = bpe.compression_ratio(tokenizer, tokenizer, texts)
    assert report.mean_ratio == 1.0
    assert all(r == 1.0 for r in report.ratios)


def test_compression_single_document(tokenizer, code_tokenizer):
    report = bpe.compression_ratio(code_tokenizer, tokenizer, ["int a = 1;"])
    assert len(report.ratios) == 1


def test_compression_empty_corpus(tokenizer):
    with pytest.raises(ValueError, match="corpus is empty"):
        bpe.compression_ratio(tokenizer, tokenizer, [])


def test_code_tokenizer_compresses_code(code_tokenizer, nl_tokenizer, bundled_records):
    report = bpe.compression_ratio(
        code_tokenizer, nl_tokenizer, [r.code for r in bundled_records]
    )
    assert report.mean_ratio < 1.0
    assert report.mean_ratio == pytest.approx(GOLDEN_MEAN_RATIO, abs=1e-12)


def test_nonprintable_merges_excluded():
    # 'aa' merges; the control-character run never does.
    tok = bpe.train(["aa\x00\x00 " * 10], vocab_size=400, min_freq=2)
    assert ("a", "a") in tok.merges
    for a, b in tok.merges:
        assert bpe.is_printable_token(a + b)


@given(st.text(max_size=200))
@settings(max_examples=150, deadline=None)
def test_roundtrip_arbitrary_text(tokenizer, text):
    assert tokenizer.decode(tokenizer.encode(text)) == text


@given(st.text(min_size=1, max_size=40), st.text(min_size=0, max_size=40))
@settings(max_examples=50, deadline=None)
def test_encode_length_floor(tokenizer, a, b):
    assert len(tokenizer.encode(a + b)) >= 1
