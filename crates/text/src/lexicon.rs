//! Hate-lexicon features.
//!
//! The paper uses "a dictionary of hate lexicons proposed in [17] ... a
//! total of 209 words/phrases signaling a possible existence of hatefulness
//! in a tweet" (Section VI-B). The feature derived from it is
//! `HL = {h_i}` — the frequency of each lexicon entry in a tweet or in a
//! user's recent history (Section IV-A).
//!
//! Entries may be multi-token phrases; matching is case-insensitive on the
//! tokenized stream.

use std::collections::HashMap;

/// A hate lexicon supporting single-token and phrase entries.
#[derive(Debug, Clone, Default)]
pub struct HateLexicon {
    entries: Vec<Vec<String>>,
    /// first-token -> entry indices (for phrase matching).
    index: HashMap<String, Vec<usize>>,
}

impl HateLexicon {
    /// Build from entry strings; each entry is tokenized on whitespace.
    pub fn new<S: AsRef<str>>(terms: &[S]) -> Self {
        let mut lex = Self::default();
        for t in terms {
            lex.add(t.as_ref());
        }
        lex
    }

    /// Add an entry (word or phrase).
    pub fn add(&mut self, term: &str) {
        let toks: Vec<String> = term.split_whitespace().map(|t| t.to_lowercase()).collect();
        if toks.is_empty() {
            return;
        }
        let idx = self.entries.len();
        self.index.entry(toks[0].clone()).or_default().push(idx);
        self.entries.push(toks);
    }

    /// Number of lexicon entries (`|H|`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the lexicon has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The tokens of entry `i`.
    pub fn entry(&self, i: usize) -> &[String] {
        &self.entries[i]
    }

    /// Count occurrences of every entry in a token stream, returning the
    /// `HL` frequency vector of length [`Self::len`]. Overlapping phrase
    /// matches are counted greedily left-to-right, non-overlapping.
    pub fn count_vector(&self, tokens: &[String]) -> Vec<u32> {
        let mut counts = vec![0u32; self.entries.len()];
        let mut i = 0;
        while i < tokens.len() {
            let tok = tokens[i].to_lowercase();
            let mut advanced = 1;
            if let Some(cands) = self.index.get(&tok) {
                // Prefer the longest matching phrase at this position.
                let mut best: Option<usize> = None;
                for &e in cands {
                    debug_assert!(e < self.entries.len());
                    let ent = &self.entries[e];
                    if i + ent.len() <= tokens.len()
                        && ent
                            .iter()
                            .zip(&tokens[i..i + ent.len()])
                            .all(|(a, b)| a == &b.to_lowercase())
                        && best.map_or(true, |b| ent.len() > self.entries[b].len())
                    {
                        best = Some(e);
                    }
                }
                if let Some(e) = best {
                    counts[e] += 1;
                    advanced = self.entries[e].len();
                }
            }
            i += advanced;
        }
        counts
    }

    /// Total lexicon hits in a token stream (sum of the count vector).
    pub fn total_hits(&self, tokens: &[String]) -> u32 {
        self.count_vector(tokens).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn counts_single_words() {
        let lex = HateLexicon::new(&["harami", "jhalla"]);
        let v = lex.count_vector(&toks("you harami go harami jhalla"));
        assert_eq!(v, vec![2, 1]);
    }

    #[test]
    fn case_insensitive() {
        let lex = HateLexicon::new(&["Mulla"]);
        assert_eq!(lex.count_vector(&toks("MULLA mulla")), vec![2]);
    }

    #[test]
    fn phrase_matching_longest_wins() {
        let lex = HateLexicon::new(&["go back", "go"]);
        let v = lex.count_vector(&toks("go back home go now"));
        // "go back" matched once (longest at pos 0), then bare "go" at pos 3.
        assert_eq!(v, vec![1, 1]);
    }

    #[test]
    fn no_hits_on_clean_text() {
        let lex = HateLexicon::new(&["slur"]);
        assert_eq!(lex.total_hits(&toks("a perfectly fine sentence")), 0);
    }

    #[test]
    fn empty_lexicon_gives_empty_vector() {
        let lex = HateLexicon::default();
        assert!(lex.is_empty());
        assert!(lex.count_vector(&toks("anything")).is_empty());
    }

    #[test]
    fn len_reports_entries() {
        let lex = HateLexicon::new(&["a", "b c", "d"]);
        assert_eq!(lex.len(), 3);
        assert_eq!(lex.entry(1), &["b".to_string(), "c".to_string()][..]);
    }
}
