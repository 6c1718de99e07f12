//! Frequency-counted vocabulary with id assignment and pruning.

use std::collections::HashMap;

/// A vocabulary mapping tokens to dense ids, tracking corpus frequencies.
///
/// Used by [`crate::tfidf::TfIdfVectorizer`] and [`crate::doc2vec::Doc2Vec`].
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    token_to_id: HashMap<String, usize>,
    id_to_token: Vec<String>,
    counts: Vec<u64>,
}

impl Vocabulary {
    /// Create an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a vocabulary from an iterator of token sequences.
    pub fn from_docs<'a, I, S>(docs: I) -> Self
    where
        I: IntoIterator<Item = &'a [S]>,
        S: AsRef<str> + 'a,
    {
        let mut v = Self::new();
        for doc in docs {
            for tok in doc {
                v.add(tok.as_ref());
            }
        }
        v
    }

    /// Add one occurrence of `token`, assigning an id on first sight.
    /// Returns the token's id.
    pub fn add(&mut self, token: &str) -> usize {
        match self.token_to_id.get(token) {
            Some(&id) => {
                self.counts[id] += 1;
                id
            }
            None => {
                let id = self.id_to_token.len();
                self.token_to_id.insert(token.to_string(), id);
                self.id_to_token.push(token.to_string());
                self.counts.push(1);
                id
            }
        }
    }

    /// Look up a token's id.
    pub fn get(&self, token: &str) -> Option<usize> {
        self.token_to_id.get(token).copied()
    }

    /// Reverse lookup.
    pub fn token(&self, id: usize) -> &str {
        &self.id_to_token[id]
    }

    /// Corpus frequency of a token id.
    pub fn count(&self, id: usize) -> u64 {
        self.counts[id]
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// True when no tokens have been added.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.is_empty()
    }

    /// Total number of token occurrences observed.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Return a new vocabulary containing only tokens with
    /// `count >= min_count`, with ids re-assigned densely in the original
    /// id order. Also returns the old-id → new-id mapping.
    pub fn pruned(&self, min_count: u64) -> (Self, Vec<Option<usize>>) {
        let mut out = Self::new();
        let mut remap = vec![None; self.len()];
        for (old_id, tok) in self.id_to_token.iter().enumerate() {
            if self.counts[old_id] >= min_count {
                let new_id = out.id_to_token.len();
                out.token_to_id.insert(tok.clone(), new_id);
                out.id_to_token.push(tok.clone());
                out.counts.push(self.counts[old_id]);
                remap[old_id] = Some(new_id);
            }
        }
        (out, remap)
    }

    /// Ids of the `k` most frequent tokens, ties broken by id (stable).
    pub fn top_k_by_count(&self, k: usize) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.len()).collect();
        ids.sort_by_key(|&i| (std::cmp::Reverse(self.counts[i]), i));
        ids.truncate(k);
        ids
    }

    /// Iterate over `(token, id, count)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize, u64)> + '_ {
        self.id_to_token
            .iter()
            .enumerate()
            .map(move |(id, tok)| (tok.as_str(), id, self.counts[id]))
    }

    /// Rebuild a vocabulary from `(token, count)` pairs in id order, as
    /// produced by [`Vocabulary::iter`] — ids are re-assigned densely in
    /// iteration order. Returns `None` if a token repeats (a malformed
    /// snapshot; `iter` never yields duplicates).
    pub fn from_entries<I>(entries: I) -> Option<Self>
    where
        I: IntoIterator<Item = (String, u64)>,
    {
        let mut v = Self::new();
        for (token, count) in entries {
            let id = v.id_to_token.len();
            if v.token_to_id.insert(token.clone(), id).is_some() {
                return None;
            }
            v.id_to_token.push(token);
            v.counts.push(count);
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assigns_dense_ids_and_counts() {
        let mut v = Vocabulary::new();
        assert_eq!(v.add("a"), 0);
        assert_eq!(v.add("b"), 1);
        assert_eq!(v.add("a"), 0);
        assert_eq!(v.count(0), 2);
        assert_eq!(v.count(1), 1);
        assert_eq!(v.len(), 2);
        assert_eq!(v.total_count(), 3);
    }

    #[test]
    fn get_and_reverse_lookup() {
        let mut v = Vocabulary::new();
        v.add("x");
        assert_eq!(v.get("x"), Some(0));
        assert_eq!(v.get("y"), None);
        assert_eq!(v.token(0), "x");
    }

    #[test]
    fn from_docs_builds_counts() {
        let docs: Vec<Vec<String>> = vec![
            vec!["a".into(), "b".into()],
            vec!["a".into(), "c".into(), "a".into()],
        ];
        let refs: Vec<&[String]> = docs.iter().map(|d| d.as_slice()).collect();
        let v = Vocabulary::from_docs(refs);
        assert_eq!(v.count(v.get("a").unwrap()), 3);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn pruning_drops_rare_tokens_and_remaps() {
        let mut v = Vocabulary::new();
        v.add("rare");
        v.add("common");
        v.add("common");
        let (p, remap) = v.pruned(2);
        assert_eq!(p.len(), 1);
        assert_eq!(p.get("common"), Some(0));
        assert_eq!(remap[0], None);
        assert_eq!(remap[1], Some(0));
    }

    #[test]
    fn from_entries_round_trips_iter() {
        let mut v = Vocabulary::new();
        v.add("a");
        v.add("b");
        v.add("a");
        let entries: Vec<(String, u64)> = v.iter().map(|(t, _, c)| (t.to_string(), c)).collect();
        let r = Vocabulary::from_entries(entries).unwrap();
        assert_eq!(r.len(), v.len());
        for (tok, id, count) in v.iter() {
            assert_eq!(r.get(tok), Some(id));
            assert_eq!(r.count(id), count);
        }
    }

    #[test]
    fn from_entries_rejects_duplicates() {
        let entries = vec![("x".to_string(), 1), ("x".to_string(), 2)];
        assert!(Vocabulary::from_entries(entries).is_none());
    }

    #[test]
    fn top_k_ordering_by_count_then_id() {
        let mut v = Vocabulary::new();
        v.add("a"); // id 0, count 1
        v.add("b");
        v.add("b"); // id 1, count 2
        v.add("c"); // id 2, count 1
        let top = v.top_k_by_count(2);
        assert_eq!(top, vec![1, 0]); // b first, then a (tie with c broken by id)
    }
}
