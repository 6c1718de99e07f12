//! Twitter-aware tokenization.
//!
//! The paper extracts "unigram and bigram features weighted by tf-idf
//! values" from tweets (Section IV-A). Tweets are noisy: they contain
//! hashtags (`#jamiaviolence`), mentions (`@user`), URLs and punctuation.
//! This tokenizer:
//!
//! * lowercases,
//! * keeps hashtags and mentions as single tokens (the `#`/`@` sigil is
//!   retained so `#covid` and `covid` remain distinct features, matching
//!   the paper's treatment of hashtags "as individual tokens"),
//! * drops URLs entirely,
//! * splits everything else on non-alphanumeric boundaries.

/// Tokenize a tweet or headline into lowercase unigram tokens.
///
/// ```
/// let toks = text::tokenize("Protest at #JamiaViolence today! https://t.co/x @user");
/// assert_eq!(toks, vec!["protest", "at", "#jamiaviolence", "today", "@user"]);
/// ```
pub fn tokenize(input: &str) -> Vec<String> {
    let mut out = Vec::new();
    for raw in input.split_whitespace() {
        if is_url(raw) {
            continue;
        }
        let raw = raw.trim_matches(|c: char| !c.is_alphanumeric() && c != '#' && c != '@');
        if raw.is_empty() {
            continue;
        }
        let first = raw.chars().next().unwrap();
        if first == '#' || first == '@' {
            // Hashtag / mention: keep the sigil, strip trailing punctuation.
            let body: String = raw[1..]
                .chars()
                .filter(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !body.is_empty() {
                let mut tok = String::with_capacity(body.len() + 1);
                tok.push(first);
                tok.push_str(&body.to_lowercase());
                out.push(tok);
            }
        } else {
            // Plain word(s): split on any residual non-alphanumeric chars.
            let mut cur = String::new();
            for c in raw.chars() {
                if c.is_alphanumeric() {
                    cur.extend(c.to_lowercase());
                } else if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            if !cur.is_empty() {
                out.push(cur);
            }
        }
    }
    out
}

fn is_url(tok: &str) -> bool {
    tok.starts_with("http://") || tok.starts_with("https://") || tok.starts_with("www.")
}

/// Produce bigram tokens (`"a b"`) from a unigram token sequence.
pub fn bigrams(tokens: &[String]) -> Vec<String> {
    tokens
        .iter()
        .zip(tokens.iter().skip(1))
        .map(|(a, b)| {
            let mut s = String::with_capacity(a.len() + b.len() + 1);
            s.push_str(a);
            s.push(' ');
            s.push_str(b);
            s
        })
        .collect()
}

/// Tokenize and return unigrams followed by bigrams, the feature universe
/// used by the paper's TF-IDF features.
pub fn unigrams_and_bigrams(input: &str) -> Vec<String> {
    let mut uni = tokenize(input);
    let bi = bigrams(&uni);
    uni.extend(bi);
    uni
}

/// Character n-grams of orders `n_min..=n_max` over each token (the
/// feature universe of Waseem & Hovy's hate detector). Tokens shorter
/// than `n` contribute themselves once at that order.
pub fn char_ngrams(tokens: &[String], n_min: usize, n_max: usize) -> Vec<String> {
    // Lower-bound reservation: every token yields at least one entry
    // per order, which skips the early doubling steps of the hot path.
    let orders = n_max.saturating_sub(n_min) + 1;
    let mut out = Vec::with_capacity(tokens.len() * orders);
    for tok in tokens {
        let chars: Vec<char> = tok.chars().collect();
        for n in n_min..=n_max {
            if chars.len() <= n {
                if n == n_min || chars.len() == n {
                    out.push(tok.clone());
                }
                continue;
            }
            for w in chars.windows(n) {
                out.push(w.iter().collect());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_splits() {
        assert_eq!(tokenize("Hello World"), vec!["hello", "world"]);
    }

    #[test]
    fn keeps_hashtags_and_mentions() {
        assert_eq!(
            tokenize("#COVID_19 is trending says @WHO!"),
            vec!["#covid_19", "is", "trending", "says", "@who"]
        );
    }

    #[test]
    fn drops_urls() {
        assert_eq!(
            tokenize("read https://example.com/x now www.foo.bar"),
            vec!["read", "now"]
        );
    }

    #[test]
    fn splits_on_punctuation() {
        assert_eq!(tokenize("end.of,line"), vec!["end", "of", "line"]);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   !!! ...").is_empty());
    }

    #[test]
    fn bigrams_are_adjacent_pairs() {
        let toks: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        assert_eq!(bigrams(&toks), vec!["a b", "b c"]);
    }

    #[test]
    fn bigrams_of_short_sequences_empty() {
        assert!(bigrams(&[]).is_empty());
        assert!(bigrams(&["x".to_string()]).is_empty());
    }

    #[test]
    fn unigrams_and_bigrams_concatenated() {
        let feats = unigrams_and_bigrams("a b c");
        assert_eq!(feats, vec!["a", "b", "c", "a b", "b c"]);
    }

    #[test]
    fn char_ngrams_orders() {
        let toks = vec!["abc".to_string()];
        let grams = char_ngrams(&toks, 2, 3);
        assert_eq!(grams, vec!["ab", "bc", "abc"]);
    }

    #[test]
    fn char_ngrams_short_tokens() {
        let toks = vec!["a".to_string()];
        let grams = char_ngrams(&toks, 2, 4);
        // The short token appears once (at the lowest order).
        assert_eq!(grams, vec!["a"]);
    }

    #[test]
    fn unicode_handled() {
        // Devanagari codepoints are alphanumeric; tokenizer must not panic
        // or split inside them (the paper's corpus is code-switched
        // Hindi/English).
        let toks = tokenize("हरामी word");
        assert_eq!(toks.len(), 2);
    }
}
