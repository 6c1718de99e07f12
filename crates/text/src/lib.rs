//! # text — NLP substrate for the RETINA reproduction
//!
//! From-scratch implementations of every text-processing primitive the paper
//! relies on (the original used gensim / scikit-learn, which have no offline
//! Rust equivalent):
//!
//! * [`tokenize`] — Twitter-aware tokenization (hashtags, mentions, URLs),
//!   unigram and bigram extraction.
//! * [`vocab`] — frequency-counted vocabularies with pruning.
//! * [`tfidf`] — TF-IDF vectorizer over unigrams+bigrams with top-K feature
//!   selection (by corpus term frequency by default, or by IDF), after
//!   Section IV-A of the paper.
//! * [`doc2vec`] — PV-DBOW (distributed bag of words) document embeddings
//!   with negative sampling, the Doc2Vec variant of Le & Mikolov used for
//!   topic-relatedness features and for the attention inputs of RETINA.
//! * [`lexicon`] — hate-lexicon frequency vectors (the `HL` feature of
//!   Section IV-A).
//! * [`similarity`] — cosine similarity utilities.

pub mod doc2vec;
pub mod lexicon;
pub mod similarity;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use doc2vec::{Doc2Vec, Doc2VecConfig};
pub use lexicon::HateLexicon;
pub use similarity::cosine_dense;
pub use tfidf::{TfIdfConfig, TfIdfVectorizer, TopKBy};
pub use tokenize::{bigrams, char_ngrams, tokenize, unigrams_and_bigrams};
pub use vocab::Vocabulary;
