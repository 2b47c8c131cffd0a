"""Walk through corpus ingestion: lexing, identifier labels, and corpus stats."""

from codepretrain import compute_stats, ingest, label_identifiers, lex, load_lexers, normalize_corpus
from codepretrain.corpus import bundled_corpus_path


def main():
    lexers = load_lexers()

    snippet = "int binarySearch(int arr, int target) { return arr; }"
    print("source:", snippet)
    tokens = lex(snippet, lexers["mini"])
    labels = label_identifiers(tokens)
    for token, label in zip(tokens, labels):
        marker = "<-- identifier" if label else ""
        print(f"  {token.kind:<12} {token.text!r:<16} {marker}")

    print("\nbundled corpus statistics:")
    records = ingest(bundled_corpus_path())
    docs = list(normalize_corpus(records, lexers))
    for lang, s in sorted(compute_stats(docs).items()):
        print(
            f"  {lang:<8} bimodal={s.with_nl:<3} code-only={s.without_nl:<3} "
            f"identifier rate={s.identifier_rate:.1%}"
        )


if __name__ == "__main__":
    main()
