//! Versioned binary model snapshots.
//!
//! A snapshot captures everything needed to serve a trained [`Retina`]
//! without re-running the training pipeline: the hyperparameter
//! configuration, every trainable weight (exact `f64` bits), the fitted
//! input scaler, and optionally the text feature pipeline (the two TF-IDF
//! vectorizers and the hate lexicon) and the training configuration that
//! produced the weights. Doc2Vec state is deliberately excluded — the
//! embedding tables are dataset-resident and serving requests carry
//! pre-computed Doc2Vec vectors (see `PackedSample`).
//!
//! ## Wire format (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"RETSNAP\0"
//! 8       4     format version (u32, currently 1)
//! 12      4     section count (u32)
//! 16      28×n  section table: id u32, offset u64, len u64, fnv1a64 u64
//! ...           section payloads (concatenated, in table order)
//! ```
//!
//! Sections `CONFIG`, `WEIGHTS`, and `SCALER` are required; `PIPELINE`
//! and `TRAINER` are optional. Each payload carries an FNV-1a-64
//! checksum in the table, verified on load before any field is parsed.
//! Decoding never panics: truncation, corruption, unknown sections, and
//! future versions all surface as structured [`SnapshotError`] values.
//! `encode` → `decode` → `encode` is byte-identical, and a restored
//! model predicts bit-identically to the captured one.

use crate::features::TextModels;
use crate::retina::{RecurrentKind, Retina, RetinaConfig, RetinaMode};
use crate::trainer::{OptimizerKind, TrainConfig};
use ml::StandardScaler;
use nn::Matrix;
use text::{HateLexicon, TfIdfConfig, TfIdfVectorizer, TopKBy, Vocabulary};

/// Leading magic bytes of every snapshot file.
pub const MAGIC: &[u8; 8] = b"RETSNAP\0";
/// Current format version. Readers reject anything newer.
pub const FORMAT_VERSION: u32 = 1;

/// Section ids (the table may list them in any order, each at most once).
pub const SECTION_CONFIG: u32 = 1;
pub const SECTION_WEIGHTS: u32 = 2;
pub const SECTION_SCALER: u32 = 3;
pub const SECTION_PIPELINE: u32 = 4;
pub const SECTION_TRAINER: u32 = 5;

const TABLE_ENTRY_LEN: usize = 28;
const HEADER_LEN: usize = 16;

/// Structured decode/IO failures. Every invalid input maps to one of
/// these — the decoder never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The first eight bytes are not [`MAGIC`].
    BadMagic,
    /// The file was written by a newer format revision.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The input ends before a field or section does.
    Truncated {
        context: &'static str,
        needed: usize,
        available: usize,
    },
    /// A section payload fails its FNV-1a-64 checksum.
    ChecksumMismatch { section: u32 },
    /// A required section is absent.
    MissingSection { section: u32 },
    /// The table names a section id this version does not define.
    UnknownSection { section: u32 },
    /// The table lists the same section twice.
    DuplicateSection { section: u32 },
    /// A field decoded but its value is inconsistent.
    Malformed { context: &'static str },
    /// A stored weight matrix disagrees with the architecture implied by
    /// the stored config.
    ShapeMismatch {
        param: usize,
        expected: (usize, usize),
        found: (usize, usize),
    },
    /// Filesystem failure during save/load.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a RETINA snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is newer than supported version {supported}"
            ),
            SnapshotError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "snapshot truncated at {context}: need {needed} bytes, have {available}"
            ),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "required section {section} missing")
            }
            SnapshotError::UnknownSection { section } => {
                write!(f, "unknown section id {section}")
            }
            SnapshotError::DuplicateSection { section } => {
                write!(f, "section {section} listed twice")
            }
            SnapshotError::Malformed { context } => write!(f, "malformed snapshot: {context}"),
            SnapshotError::ShapeMismatch {
                param,
                expected,
                found,
            } => write!(
                f,
                "weight {param} has shape {found:?}, model expects {expected:?}"
            ),
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The serializable feature-pipeline state: everything a server needs to
/// turn raw text into RETINA input features, minus the dataset-resident
/// Doc2Vec tables.
#[derive(Debug, Clone)]
pub struct PipelineState {
    /// TF-IDF over tweet unigrams+bigrams (Section IV-A).
    pub tweet_tfidf: TfIdfVectorizer,
    /// TF-IDF over news headlines (Section IV-D).
    pub news_tfidf: TfIdfVectorizer,
    /// The hate lexicon (Section VI-B).
    pub lexicon: HateLexicon,
}

impl PipelineState {
    /// Extract the serializable parts of a fitted [`TextModels`].
    pub fn from_text_models(models: &TextModels) -> Self {
        Self {
            tweet_tfidf: models.tweet_tfidf.clone(),
            news_tfidf: models.news_tfidf.clone(),
            lexicon: models.lexicon.clone(),
        }
    }
}

/// An in-memory snapshot: captured from a live model, encoded to bytes,
/// or decoded from bytes.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Input dimensionality of the candidate feature rows.
    pub d_user: usize,
    /// The model's hyperparameter configuration.
    pub config: RetinaConfig,
    /// Parameter values in [`Retina::params`] order.
    weights: Vec<Matrix>,
    /// Fitted scaler statistics, when training has run.
    scaler: Option<(Vec<f64>, Vec<f64>)>,
    /// Optional feature-pipeline state.
    pub pipeline: Option<PipelineState>,
    /// Optional training configuration that produced the weights.
    pub trainer: Option<TrainConfig>,
}

impl Snapshot {
    /// Capture a model's current state.
    pub fn capture(model: &Retina) -> Self {
        let weights = model.params().iter().map(|p| p.value.clone()).collect();
        let scaler = model
            .scaler()
            .map(|s| (s.means().to_vec(), s.stds().to_vec()));
        Self {
            d_user: model.d_user(),
            config: model.config.clone(),
            weights,
            scaler,
            pipeline: None,
            trainer: None,
        }
    }

    /// Attach the feature-pipeline state.
    pub fn with_pipeline(mut self, pipeline: PipelineState) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Attach the training configuration.
    pub fn with_trainer(mut self, trainer: TrainConfig) -> Self {
        self.trainer = Some(trainer);
        self
    }

    /// Whether the captured model carried a fitted feature scaler.
    pub fn has_scaler(&self) -> bool {
        self.scaler.is_some()
    }

    /// Rebuild a live model. The restored model predicts bit-identically
    /// to the captured one.
    pub fn restore(&self) -> Result<Retina, SnapshotError> {
        let mut model = Retina::new(self.d_user, self.config.clone());
        {
            let params = model.params_mut();
            if params.len() != self.weights.len() {
                return Err(SnapshotError::Malformed {
                    context: "weight count disagrees with config architecture",
                });
            }
            for (i, (p, w)) in params.into_iter().zip(&self.weights).enumerate() {
                let expected = (p.value.rows(), p.value.cols());
                let found = (w.rows(), w.cols());
                if expected != found {
                    return Err(SnapshotError::ShapeMismatch {
                        param: i,
                        expected,
                        found,
                    });
                }
                p.value.data_mut().copy_from_slice(w.data());
            }
        }
        let scaler = match &self.scaler {
            Some((means, _)) if means.len() != self.d_user => {
                return Err(SnapshotError::Malformed {
                    context: "scaler width disagrees with d_user",
                })
            }
            Some((means, stds)) => Some(
                StandardScaler::from_parts(means.clone(), stds.clone()).ok_or(
                    SnapshotError::Malformed {
                        context: "scaler statistics are not finite with positive stds",
                    },
                )?,
            ),
            None => None,
        };
        model.set_scaler(scaler);
        Ok(model)
    }

    /// Encode to the wire format. Deterministic: the same snapshot always
    /// produces the same bytes, and `decode(encode(s)).encode()` is
    /// byte-identical.
    pub fn encode(&self) -> Vec<u8> {
        let mut sections: Vec<(u32, Vec<u8>)> = vec![
            (SECTION_CONFIG, encode_config(self.d_user, &self.config)),
            (SECTION_WEIGHTS, encode_weights(&self.weights)),
            (SECTION_SCALER, encode_scaler(self.scaler.as_ref())),
        ];
        if let Some(p) = &self.pipeline {
            sections.push((SECTION_PIPELINE, encode_pipeline(p)));
        }
        if let Some(t) = &self.trainer {
            sections.push((SECTION_TRAINER, encode_trainer(t)));
        }

        let payload_start = HEADER_LEN + sections.len() * TABLE_ENTRY_LEN;
        let total: usize = payload_start + sections.iter().map(|(_, p)| p.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        let mut offset = payload_start as u64;
        for (id, payload) in &sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
            offset += payload.len() as u64;
        }
        for (_, payload) in &sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Decode from the wire format, verifying magic, version, section
    /// bounds, and checksums before parsing any payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() {
            return Err(SnapshotError::Truncated {
                context: "magic",
                needed: MAGIC.len(),
                available: bytes.len(),
            });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut header = Cursor::new(&bytes[MAGIC.len()..], "header");
        let version = header.u32()?;
        if version > FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let n_sections = header.u32()? as usize;

        let mut table = Cursor::new(bytes.get(HEADER_LEN..).unwrap_or(&[]), "section table");
        let mut found: Vec<(u32, &[u8])> = Vec::with_capacity(n_sections.min(16));
        for _ in 0..n_sections {
            let id = table.u32()?;
            let offset = table.u64()? as usize;
            let len = table.u64()? as usize;
            let checksum = table.u64()?;
            if found.iter().any(|(seen, _)| *seen == id) {
                return Err(SnapshotError::DuplicateSection { section: id });
            }
            let end = offset.checked_add(len).ok_or(SnapshotError::Malformed {
                context: "section extent overflows",
            })?;
            let payload = bytes.get(offset..end).ok_or(SnapshotError::Truncated {
                context: "section payload",
                needed: end,
                available: bytes.len(),
            })?;
            if fnv1a64(payload) != checksum {
                return Err(SnapshotError::ChecksumMismatch { section: id });
            }
            found.push((id, payload));
        }

        let mut config_payload = None;
        let mut weights_payload = None;
        let mut scaler_payload = None;
        let mut pipeline_payload = None;
        let mut trainer_payload = None;
        for (id, payload) in found {
            match id {
                SECTION_CONFIG => config_payload = Some(payload),
                SECTION_WEIGHTS => weights_payload = Some(payload),
                SECTION_SCALER => scaler_payload = Some(payload),
                SECTION_PIPELINE => pipeline_payload = Some(payload),
                SECTION_TRAINER => trainer_payload = Some(payload),
                other => return Err(SnapshotError::UnknownSection { section: other }),
            }
        }

        let (d_user, config) =
            decode_config(config_payload.ok_or(SnapshotError::MissingSection {
                section: SECTION_CONFIG,
            })?)?;
        let weights = decode_weights(weights_payload.ok_or(SnapshotError::MissingSection {
            section: SECTION_WEIGHTS,
        })?)?;
        let scaler = decode_scaler(scaler_payload.ok_or(SnapshotError::MissingSection {
            section: SECTION_SCALER,
        })?)?;
        let pipeline = pipeline_payload.map(decode_pipeline).transpose()?;
        let trainer = trainer_payload.map(decode_trainer).transpose()?;

        Ok(Self {
            d_user,
            config,
            weights,
            scaler,
            pipeline,
            trainer,
        })
    }

    /// Write the encoded snapshot to a file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        std::fs::write(path, self.encode()).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    /// Read and decode a snapshot file.
    pub fn load(path: &std::path::Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Self::decode(&bytes)
    }
}

/// FNV-1a 64-bit over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Field-level writers.

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn encode_config(d_user: usize, config: &RetinaConfig) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, d_user as u64);
    out.push(match config.mode {
        RetinaMode::Static => 0,
        RetinaMode::Dynamic => 1,
    });
    out.push(u8::from(config.use_exogenous));
    out.push(match config.recurrent {
        RecurrentKind::Gru => 0,
        RecurrentKind::Lstm => 1,
        RecurrentKind::SimpleRnn => 2,
    });
    put_u64(&mut out, config.hdim as u64);
    put_u64(&mut out, config.news_k as u64);
    put_u64(&mut out, config.d2v_dim as u64);
    put_u64(&mut out, config.seed);
    put_u64(&mut out, config.threads as u64);
    put_u64(&mut out, config.intervals.len() as u64);
    for &v in &config.intervals {
        put_f64(&mut out, v);
    }
    out
}

fn encode_weights(weights: &[Matrix]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, weights.len() as u64);
    for w in weights {
        put_u64(&mut out, w.rows() as u64);
        put_u64(&mut out, w.cols() as u64);
        for &v in w.data() {
            put_f64(&mut out, v);
        }
    }
    out
}

fn encode_scaler(scaler: Option<&(Vec<f64>, Vec<f64>)>) -> Vec<u8> {
    let mut out = Vec::new();
    match scaler {
        None => out.push(0),
        Some((means, stds)) => {
            out.push(1);
            put_u64(&mut out, means.len() as u64);
            for &v in means {
                put_f64(&mut out, v);
            }
            for &v in stds {
                put_f64(&mut out, v);
            }
        }
    }
    out
}

fn encode_tfidf(v: &TfIdfVectorizer, out: &mut Vec<u8>) {
    let (vocab, idf, selected, config) = v.to_parts();
    put_u64(out, vocab.len() as u64);
    for (token, _, count) in vocab.iter() {
        put_str(out, token);
        put_u64(out, count);
    }
    put_u64(out, idf.len() as u64);
    for &x in idf {
        put_f64(out, x);
    }
    put_u64(out, selected.len() as u64);
    for &id in selected {
        put_u64(out, id as u64);
    }
    match config.top_k {
        None => out.push(0),
        Some(k) => {
            out.push(1);
            put_u64(out, k as u64);
        }
    }
    out.push(match config.top_k_by {
        TopKBy::TermFrequency => 0,
        TopKBy::Idf => 1,
    });
    put_u64(out, config.min_df as u64);
    out.push(u8::from(config.use_bigrams));
    out.push(u8::from(config.l2_normalize));
}

fn encode_pipeline(p: &PipelineState) -> Vec<u8> {
    let mut out = Vec::new();
    encode_tfidf(&p.tweet_tfidf, &mut out);
    encode_tfidf(&p.news_tfidf, &mut out);
    put_u64(&mut out, p.lexicon.len() as u64);
    for i in 0..p.lexicon.len() {
        put_str(&mut out, &p.lexicon.entry(i).join(" "));
    }
    out
}

fn encode_trainer(t: &TrainConfig) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, t.epochs as u64);
    out.push(match t.optimizer {
        OptimizerKind::Adam => 0,
        OptimizerKind::Sgd => 1,
    });
    put_f64(&mut out, t.lr);
    put_f64(&mut out, t.lambda);
    put_u64(&mut out, t.batch_tweets as u64);
    put_u64(&mut out, t.seed);
    out
}

// ---------------------------------------------------------------------------
// Field-level reader.

/// Bounds-checked little-endian reader over one section payload. Every
/// overrun maps to [`SnapshotError::Truncated`] with the section name.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], context: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            context,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Malformed {
            context: "length overflows",
        })?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated {
                context: self.context,
                needed: end,
                available: self.buf.len(),
            })?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(b);
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// A `u64` that must fit a `usize` and count no more than
    /// `elem_size`-byte elements than the remaining payload holds — so a
    /// corrupt length can never trigger a huge allocation.
    fn len(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        let n = usize::try_from(v).map_err(|_| SnapshotError::Malformed {
            context: "length exceeds address space",
        })?;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(elem_size.max(1))
            .is_none_or(|b| b > remaining)
        {
            return Err(SnapshotError::Truncated {
                context: self.context,
                needed: self.pos.saturating_add(n.saturating_mul(elem_size.max(1))),
                available: self.buf.len(),
            });
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed {
            context: "string is not UTF-8",
        })
    }

    fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Malformed {
                context: "trailing bytes after section payload",
            });
        }
        Ok(())
    }
}

fn decode_config(payload: &[u8]) -> Result<(usize, RetinaConfig), SnapshotError> {
    let mut c = Cursor::new(payload, "config section");
    let d_user = usize::try_from(c.u64()?).map_err(|_| SnapshotError::Malformed {
        context: "d_user exceeds address space",
    })?;
    let mode = match c.u8()? {
        0 => RetinaMode::Static,
        1 => RetinaMode::Dynamic,
        _ => {
            return Err(SnapshotError::Malformed {
                context: "unknown mode tag",
            })
        }
    };
    let use_exogenous = c.u8()? != 0;
    let recurrent = match c.u8()? {
        0 => RecurrentKind::Gru,
        1 => RecurrentKind::Lstm,
        2 => RecurrentKind::SimpleRnn,
        _ => {
            return Err(SnapshotError::Malformed {
                context: "unknown recurrent-cell tag",
            })
        }
    };
    let hdim = c.u64()? as usize;
    let news_k = c.u64()? as usize;
    let d2v_dim = c.u64()? as usize;
    let seed = c.u64()?;
    let threads = c.u64()? as usize;
    let n_intervals = c.len(8)?;
    let mut intervals = Vec::with_capacity(n_intervals);
    for _ in 0..n_intervals {
        intervals.push(c.f64()?);
    }
    c.finish()?;
    Ok((
        d_user,
        RetinaConfig {
            mode,
            use_exogenous,
            hdim,
            news_k,
            d2v_dim,
            intervals,
            recurrent,
            seed,
            threads,
        },
    ))
}

fn decode_weights(payload: &[u8]) -> Result<Vec<Matrix>, SnapshotError> {
    let mut c = Cursor::new(payload, "weights section");
    // Each matrix needs at least its 16-byte shape prefix.
    let n = c.len(16)?;
    let mut weights = Vec::with_capacity(n);
    for _ in 0..n {
        let rows = usize::try_from(c.u64()?).map_err(|_| SnapshotError::Malformed {
            context: "matrix rows exceed address space",
        })?;
        let cols = usize::try_from(c.u64()?).map_err(|_| SnapshotError::Malformed {
            context: "matrix cols exceed address space",
        })?;
        let n_elems = rows.checked_mul(cols).ok_or(SnapshotError::Malformed {
            context: "matrix extent overflows",
        })?;
        let bytes = c.take(n_elems.checked_mul(8).ok_or(SnapshotError::Malformed {
            context: "matrix byte extent overflows",
        })?)?;
        let mut data = Vec::with_capacity(n_elems);
        for chunk in bytes.chunks_exact(8) {
            let mut arr = [0u8; 8];
            arr.copy_from_slice(chunk);
            data.push(f64::from_bits(u64::from_le_bytes(arr)));
        }
        weights.push(Matrix::from_vec(rows, cols, data));
    }
    c.finish()?;
    Ok(weights)
}

#[allow(clippy::type_complexity)]
fn decode_scaler(payload: &[u8]) -> Result<Option<(Vec<f64>, Vec<f64>)>, SnapshotError> {
    let mut c = Cursor::new(payload, "scaler section");
    let present = c.u8()?;
    let out = match present {
        0 => None,
        1 => {
            let n = c.len(16)?;
            let mut means = Vec::with_capacity(n);
            for _ in 0..n {
                means.push(c.f64()?);
            }
            let mut stds = Vec::with_capacity(n);
            for _ in 0..n {
                stds.push(c.f64()?);
            }
            Some((means, stds))
        }
        _ => {
            return Err(SnapshotError::Malformed {
                context: "unknown scaler-presence tag",
            })
        }
    };
    c.finish()?;
    Ok(out)
}

fn decode_tfidf(c: &mut Cursor<'_>) -> Result<TfIdfVectorizer, SnapshotError> {
    // Each vocab entry needs at least its 8-byte token length + 8-byte
    // count.
    let n_vocab = c.len(16)?;
    let mut entries = Vec::with_capacity(n_vocab);
    for _ in 0..n_vocab {
        let token = c.string()?;
        let count = c.u64()?;
        entries.push((token, count));
    }
    let vocab = Vocabulary::from_entries(entries).ok_or(SnapshotError::Malformed {
        context: "duplicate vocabulary token",
    })?;
    let n_idf = c.len(8)?;
    let mut idf = Vec::with_capacity(n_idf);
    for _ in 0..n_idf {
        idf.push(c.f64()?);
    }
    let n_sel = c.len(8)?;
    let mut selected = Vec::with_capacity(n_sel);
    for _ in 0..n_sel {
        selected.push(
            usize::try_from(c.u64()?).map_err(|_| SnapshotError::Malformed {
                context: "selected feature id exceeds address space",
            })?,
        );
    }
    let top_k = match c.u8()? {
        0 => None,
        1 => Some(c.u64()? as usize),
        _ => {
            return Err(SnapshotError::Malformed {
                context: "unknown top_k-presence tag",
            })
        }
    };
    let top_k_by = match c.u8()? {
        0 => TopKBy::TermFrequency,
        1 => TopKBy::Idf,
        _ => {
            return Err(SnapshotError::Malformed {
                context: "unknown top_k_by tag",
            })
        }
    };
    let min_df = c.u64()? as usize;
    let use_bigrams = c.u8()? != 0;
    let l2_normalize = c.u8()? != 0;
    let config = TfIdfConfig {
        top_k,
        top_k_by,
        min_df,
        use_bigrams,
        l2_normalize,
    };
    TfIdfVectorizer::from_parts(vocab, idf, selected, config).ok_or(SnapshotError::Malformed {
        context: "inconsistent tf-idf parts",
    })
}

fn decode_pipeline(payload: &[u8]) -> Result<PipelineState, SnapshotError> {
    let mut c = Cursor::new(payload, "pipeline section");
    let tweet_tfidf = decode_tfidf(&mut c)?;
    let news_tfidf = decode_tfidf(&mut c)?;
    let n_lex = c.len(8)?;
    let mut terms = Vec::with_capacity(n_lex);
    for _ in 0..n_lex {
        terms.push(c.string()?);
    }
    c.finish()?;
    Ok(PipelineState {
        tweet_tfidf,
        news_tfidf,
        lexicon: HateLexicon::new(&terms),
    })
}

fn decode_trainer(payload: &[u8]) -> Result<TrainConfig, SnapshotError> {
    let mut c = Cursor::new(payload, "trainer section");
    let epochs = c.u64()? as usize;
    let optimizer = match c.u8()? {
        0 => OptimizerKind::Adam,
        1 => OptimizerKind::Sgd,
        _ => {
            return Err(SnapshotError::Malformed {
                context: "unknown optimizer tag",
            })
        }
    };
    let lr = c.f64()?;
    let lambda = c.f64()?;
    let batch_tweets = c.u64()? as usize;
    let seed = c.u64()?;
    c.finish()?;
    Ok(TrainConfig {
        epochs,
        optimizer,
        lr,
        lambda,
        batch_tweets,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retina::{PackedSample, RetinaConfig};

    fn toy_sample(n: usize, d: usize, seed: u64) -> PackedSample {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let intervals = crate::retina::default_intervals();
        let labels: Vec<u8> = (0..n).map(|i| u8::from(i % 3 == 0)).collect();
        let retweet_times: Vec<f64> = labels
            .iter()
            .map(|&l| if l == 1 { 2.0 } else { f64::INFINITY })
            .collect();
        PackedSample {
            user_rows: (0..n)
                .map(|_| {
                    let row: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    nn::SparseRow::from_dense(&row)
                })
                .collect(),
            labels,
            interval_labels: retweet_times
                .iter()
                .map(|&t| {
                    let mut row = vec![0u8; intervals.len()];
                    if t.is_finite() {
                        row[1] = 1;
                    }
                    row
                })
                .collect(),
            tweet_d2v: (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            news_d2v: (0..4)
                .map(|_| (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect(),
            hateful: false,
            t0: 0.0,
            retweet_times,
        }
    }

    #[test]
    fn round_trip_is_bit_identical_static() {
        let mut m = Retina::new(12, RetinaConfig::static_default());
        let s = toy_sample(8, 12, 0);
        let before = m.predict_proba(&s);
        let snap = Snapshot::capture(&m);
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).unwrap();
        let mut restored = decoded.restore().unwrap();
        let after = restored.predict_proba(&s);
        assert_eq!(
            before.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            after.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        );
        // Re-encode is byte-identical.
        assert_eq!(bytes, decoded.encode());
    }

    #[test]
    fn round_trip_preserves_trained_scaler() {
        let data: Vec<PackedSample> = (0..6).map(|i| toy_sample(6, 12, i)).collect();
        let mut m = Retina::new(12, RetinaConfig::static_default());
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::static_default()
        };
        crate::trainer::train_retina(&mut m, &data, &cfg);
        let snap = Snapshot::capture(&m).with_trainer(cfg.clone());
        let mut restored = Snapshot::decode(&snap.encode()).unwrap().restore().unwrap();
        for s in &data {
            let a = m.predict_proba(s);
            let b = restored.predict_proba(s);
            assert_eq!(
                a.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            );
        }
        let t = Snapshot::decode(&snap.encode()).unwrap().trainer.unwrap();
        assert_eq!(t.epochs, cfg.epochs);
        assert_eq!(t.lr, cfg.lr);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let m = Retina::new(4, RetinaConfig::static_default());
        let mut bytes = Snapshot::capture(&m).encode();
        bytes[0] ^= 0xFF;
        match Snapshot::decode(&bytes) {
            Err(SnapshotError::BadMagic) => {}
            other => panic!("expected BadMagic, got {:?}", other.err()),
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let m = Retina::new(4, RetinaConfig::static_default());
        let mut bytes = Snapshot::capture(&m).encode();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match Snapshot::decode(&bytes) {
            Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {:?}", other.err()),
        }
    }

    #[test]
    fn payload_corruption_is_a_checksum_mismatch() {
        let m = Retina::new(4, RetinaConfig::static_default());
        let snap = Snapshot::capture(&m);
        let bytes = snap.encode();
        // Flip the last byte — inside the final section's payload.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        match Snapshot::decode(&corrupt) {
            Err(SnapshotError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {:?}", other.err()),
        }
    }

    #[test]
    fn truncation_is_reported() {
        let m = Retina::new(4, RetinaConfig::static_default());
        let bytes = Snapshot::capture(&m).encode();
        for cut in [0, 4, 12, 20, bytes.len() / 2, bytes.len() - 1] {
            match Snapshot::decode(&bytes[..cut]) {
                Err(SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }) => {}
                other => panic!(
                    "cut at {cut}: expected truncation error, got {:?}",
                    other.err()
                ),
            }
        }
    }

    #[test]
    fn pipeline_round_trips() {
        let tfidf = TfIdfVectorizer::fit(
            &["cat sat here", "dog ran fast", "cat ran"],
            TfIdfConfig::default(),
        );
        let news = TfIdfVectorizer::fit(&["rally today", "storm coming"], TfIdfConfig::default());
        let lexicon = HateLexicon::new(&["slur", "go back"]);
        let m = Retina::new(4, RetinaConfig::static_default());
        let snap = Snapshot::capture(&m).with_pipeline(PipelineState {
            tweet_tfidf: tfidf.clone(),
            news_tfidf: news.clone(),
            lexicon: lexicon.clone(),
        });
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        let p = decoded.pipeline.unwrap();
        let doc = "cat ran fast today";
        assert_eq!(tfidf.transform(doc), p.tweet_tfidf.transform(doc));
        assert_eq!(news.transform(doc), p.news_tfidf.transform(doc));
        assert_eq!(p.lexicon.len(), lexicon.len());
        assert_eq!(p.lexicon.entry(1), lexicon.entry(1));
    }

    #[test]
    fn shape_mismatch_is_structured() {
        // Capture with one config, then lie about hdim so the weight
        // shapes disagree with the architecture.
        let m = Retina::new(4, RetinaConfig::static_default());
        let mut snap = Snapshot::capture(&m);
        snap.config.hdim = 32;
        match snap.restore() {
            Err(SnapshotError::ShapeMismatch { .. }) => {}
            other => panic!("expected shape mismatch, got {:?}", other.err()),
        }
    }

    #[test]
    fn dynamic_all_cells_round_trip() {
        for recurrent in [
            RecurrentKind::Gru,
            RecurrentKind::Lstm,
            RecurrentKind::SimpleRnn,
        ] {
            let cfg = RetinaConfig {
                recurrent,
                ..RetinaConfig::dynamic_default()
            };
            let mut m = Retina::new(10, cfg);
            let s = toy_sample(5, 10, 7);
            let before = m.predict_proba(&s);
            let mut restored = Snapshot::decode(&Snapshot::capture(&m).encode())
                .unwrap()
                .restore()
                .unwrap();
            let after = restored.predict_proba(&s);
            assert_eq!(
                before.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                after.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "cell {recurrent:?}"
            );
        }
    }
}
