//! Work counters computed from tensor shapes, not measured.
//!
//! FLOPs count a multiply-add as two operations and add the elementwise
//! work (bias, activation, gates). Bytes moved count each f64 operand
//! read and each result written once, as a kernel that streams its
//! inputs would move them; layer weights are read once per sample and
//! spread over that sample's candidate rows. Training is counted as
//! three forward passes (forward plus a backward pass that costs about
//! two), a standard approximation.

/// Bytes per f64 element.
const F64: f64 = 8.0;

/// Forward plus backward, in forward-pass units.
pub const TRAIN_FORWARD_PASSES: f64 = 3.0;

/// The RETINA shapes the counters depend on.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    pub d_user: usize,
    pub hdim: usize,
    pub d2v: usize,
    pub news_k: usize,
    pub intervals: usize,
}

impl Shapes {
    /// User dense + ReLU, per candidate row.
    pub fn user_dense_flop_per_row(&self) -> f64 {
        let (d, h) = (self.d_user as f64, self.hdim as f64);
        2.0 * d * h + 2.0 * h
    }

    pub fn user_dense_bytes_per_row(&self, rows_per_sample: f64) -> f64 {
        let (d, h) = (self.d_user as f64, self.hdim as f64);
        F64 * (d + h) + F64 * (d * h + h) / rows_per_sample
    }

    /// Exogenous attention runs once per sample: query, key and value
    /// projections, scores, softmax and the weighted sum.
    pub fn attention_flop_per_sample(&self) -> f64 {
        let (e, h, k) = (self.d2v as f64, self.hdim as f64, self.news_k as f64);
        2.0 * e * h + 2.0 * 2.0 * k * e * h + 2.0 * k * h + 3.0 * k + 2.0 * k * h
    }

    pub fn attention_bytes_per_sample(&self) -> f64 {
        let (e, h, k) = (self.d2v as f64, self.hdim as f64, self.news_k as f64);
        let inputs = e + k * e;
        let weights = 3.0 * e * h;
        let outputs = h + 2.0 * k * h + k + h;
        F64 * (inputs + weights + outputs)
    }

    /// Static head: one dense over the merged `2h` representation.
    pub fn head_static_flop_per_row(&self) -> f64 {
        let h = self.hdim as f64;
        2.0 * 2.0 * h + 2.0
    }

    pub fn head_static_bytes_per_row(&self, rows_per_sample: f64) -> f64 {
        let h = self.hdim as f64;
        F64 * (2.0 * h + 1.0) + F64 * (2.0 * h + 1.0) / rows_per_sample
    }

    /// Dynamic head: a GRU over the intervals with a `2h` input, three
    /// gates of input and recurrent matmuls, plus the shared step dense.
    pub fn head_dynamic_flop_per_row(&self) -> f64 {
        let (h, t) = (self.hdim as f64, self.intervals as f64);
        let gates = 3.0 * (2.0 * 2.0 * h * h + 2.0 * h * h);
        let elementwise = 10.0 * h;
        let step = 2.0 * h + 2.0;
        t * (gates + elementwise + step)
    }

    pub fn head_dynamic_bytes_per_row(&self, rows_per_sample: f64) -> f64 {
        let (h, t) = (self.hdim as f64, self.intervals as f64);
        // Per step: the merged input and previous state in, three gate
        // activations and the new state out, one step logit.
        let per_step = 2.0 * h + h + 3.0 * h + h + 1.0;
        let weights = 3.0 * (2.0 * h * h + h * h + h) + h + 1.0;
        F64 * t * per_step + F64 * weights / rows_per_sample
    }

    /// Forward FLOPs for `samples` samples with `rows` candidate rows.
    pub fn forward_flop(&self, dynamic: bool, rows: usize, samples: usize) -> f64 {
        let head = if dynamic {
            self.head_dynamic_flop_per_row()
        } else {
            self.head_static_flop_per_row()
        };
        rows as f64 * (self.user_dense_flop_per_row() + head)
            + samples as f64 * self.attention_flop_per_sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shapes = Shapes {
        d_user: 3,
        hdim: 2,
        d2v: 4,
        news_k: 5,
        intervals: 6,
    };

    #[test]
    fn counts_match_hand_derivation() {
        // 2·3·2 matmul + 2·2 bias/ReLU.
        assert_eq!(TINY.user_dense_flop_per_row(), 16.0);
        // q 2·4·2 + k,v 2·2·5·4·2 + scores 2·5·2 + softmax 3·5 + mix 2·5·2.
        assert_eq!(
            TINY.attention_flop_per_sample(),
            16.0 + 160.0 + 20.0 + 15.0 + 20.0
        );
        assert_eq!(TINY.head_static_flop_per_row(), 10.0);
        // Per step: gates 3·(2·4·2 + 2·2·2) = 72, elementwise 20, step 6.
        assert_eq!(TINY.head_dynamic_flop_per_row(), 6.0 * 98.0);
        // Weights amortize over the rows of a sample.
        assert_eq!(TINY.user_dense_bytes_per_row(1.0), 8.0 * (5.0 + 8.0));
        assert_eq!(TINY.user_dense_bytes_per_row(2.0), 8.0 * (5.0 + 4.0));
    }

    #[test]
    fn forward_flop_sums_rows_and_samples() {
        let f = TINY.forward_flop(false, 10, 2);
        assert_eq!(f, 10.0 * 26.0 + 2.0 * 231.0);
        assert!(TINY.forward_flop(true, 10, 2) > f);
    }
}
