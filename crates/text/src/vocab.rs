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

    /// Return a new vocabulary containing only tokens with
    /// `count >= min_count`, with ids re-assigned densely in the original
    /// id order.
    pub fn pruned(&self, min_count: u64) -> Self {
        let mut out = Self::new();
        for (old_id, tok) in self.id_to_token.iter().enumerate() {
            if self.counts[old_id] >= min_count {
                let new_id = out.id_to_token.len();
                out.token_to_id.insert(tok.clone(), new_id);
                out.id_to_token.push(tok.clone());
                out.counts.push(self.counts[old_id]);
            }
        }
        out
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
    fn pruning_drops_rare_tokens_and_keeps_id_order() {
        let mut v = Vocabulary::new();
        for tok in ["rare", "common", "common", "also", "also"] {
            v.add(tok);
        }
        let p = v.pruned(2);
        assert_eq!(p.len(), 2);
        assert_eq!((p.get("common"), p.get("also")), (Some(0), Some(1)));
        assert_eq!((p.count(0), p.count(1)), (2, 2));
        assert_eq!(p.get("rare"), None);
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
}
